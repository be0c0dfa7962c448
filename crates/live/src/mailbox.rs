//! The host's timed mailbox: the events [`crate::FaasHost`]'s driver
//! owes itself at wall-clock deadlines, in a heap the driver owns.
//!
//! "Deliver this event at time T" is a [`DeadlineHeap`] push — no lock,
//! no allocation, no task — and the driver loop awaits
//! [`TimedMailbox::next`]: a timer or a channel message, whichever is
//! first. However many events are pending, the reactor hears of one,
//! the earliest, and only when the driver has nothing else to do: a
//! driver kept awake by messages meets its deadlines by reading the
//! clock. The registration is replaced only when the earliest deadline
//! is no longer the one it was made for.

use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

use crate::exec::channel::Receiver;
use crate::exec::{Handle, Sleep};
use crate::heap::DeadlineHeap;

/// What [`TimedMailbox::next`] woke for.
pub(crate) enum Next<T, M> {
    /// A scheduled event whose deadline passed.
    Due(T),
    /// A channel message.
    Message(M),
}

/// See the [module docs](self).
pub(crate) struct TimedMailbox<T> {
    heap: DeadlineHeap<T>,
    exec: Handle,
    /// The one reactor registration, and the deadline it was made for.
    sleep: Option<(Instant, Sleep)>,
}

impl<T> TimedMailbox<T> {
    pub(crate) fn new(exec: Handle) -> Self {
        Self {
            heap: DeadlineHeap::new(),
            exec,
            sleep: None,
        }
    }

    /// Schedules `event` for `deadline`. Equal deadlines surface in
    /// schedule order.
    pub(crate) fn schedule(&mut self, deadline: Instant, event: T) {
        self.heap.push(deadline, event);
    }

    /// Whether nothing is scheduled.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Resolves with whichever comes first: a scheduled event falling
    /// due or a message on `rx`. Due events go first — there are
    /// finitely many at any instant, while a busy channel need never
    /// run dry — and the reactor hears of the earliest deadline only
    /// when there is neither: a driver kept awake by messages meets its
    /// deadlines by the clock reading it takes per message anyway.
    /// `None` once every sender is gone and `rx` is drained.
    pub(crate) fn next<'a, M>(
        &'a mut self,
        rx: &'a mut Receiver<M>,
    ) -> impl Future<Output = Option<Next<T, M>>> + 'a {
        poll_fn(move |cx| {
            if let Some(event) = self.heap.pop_due(Instant::now()) {
                return Poll::Ready(Some(Next::Due(event)));
            }
            if let Poll::Ready(msg) = Pin::new(&mut rx.recv()).poll(cx) {
                return Poll::Ready(msg.map(Next::Message));
            }
            self.poll_due(cx).map(|event| Some(Next::Due(event)))
        })
    }

    /// The earliest scheduled event once its deadline has passed;
    /// pending, with the reactor told of that deadline, until then, and
    /// for good while nothing is scheduled.
    fn poll_due(&mut self, cx: &mut Context<'_>) -> Poll<T> {
        loop {
            if let Some(event) = self.heap.pop_due(Instant::now()) {
                return Poll::Ready(event);
            }
            let Some(next) = self.heap.next_deadline() else {
                return Poll::Pending;
            };
            match &mut self.sleep {
                Some((at, sleep)) if *at == next => {
                    if Pin::new(sleep).poll(cx).is_pending() {
                        return Poll::Pending;
                    }
                    self.sleep = None;
                    // The reactor says `next` has passed. Take its word
                    // over a second clock reading: a `Sleep` also
                    // resolves when the executor is gone, and an early
                    // event beats a loop that never ends.
                    let event = self.heap.pop_due(next);
                    return Poll::Ready(event.expect("the earliest entry is due at `next`"));
                }
                // Nothing registered, or the earliest deadline moved
                // (an earlier event was scheduled, or the clock beat
                // the reactor to the one this stood for): dropping the
                // old registration cancels it.
                _ => self.sleep = Some((next, self.exec.sleep_until(next))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{channel, Executor};
    use std::pin::pin;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::{Wake, Waker};
    use std::time::Duration;

    /// Counts its wakes, so a test can poll by hand and see exactly
    /// when the mailbox asked to be polled again.
    #[derive(Default)]
    struct CountWakes(AtomicUsize);

    impl Wake for CountWakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    const FAR: Duration = Duration::from_secs(3600);

    /// The event of a wake-up that must have been for a deadline.
    fn due<T>(next: Option<Next<T, ()>>) -> T {
        match next {
            Some(Next::Due(event)) => event,
            _ => panic!("woke for a message on a silent channel"),
        }
    }

    #[test]
    fn equal_deadlines_surface_in_schedule_order() {
        let exec = Executor::new(1);
        let mut mailbox = TimedMailbox::new(exec.handle());
        let (_tx, mut rx) = channel::channel::<()>();
        let at = Instant::now() + Duration::from_millis(5);
        mailbox.schedule(at + Duration::from_millis(1), "late");
        for name in ["a", "b", "c", "d"] {
            mailbox.schedule(at, name);
        }
        let got: Vec<_> = exec.block_on(async {
            let mut got = Vec::new();
            while !mailbox.is_empty() {
                got.push(due(mailbox.next(&mut rx).await));
            }
            got
        });
        assert_eq!(got, ["a", "b", "c", "d", "late"]);
        // One registration at a time served all five.
        assert!(exec.stats().peak_timers <= 1);
        exec.shutdown();
    }

    #[test]
    fn a_message_sent_while_the_driver_sleeps_beats_a_later_deadline() {
        let exec = Executor::new(1);
        let mut mailbox = TimedMailbox::new(exec.handle());
        let (tx, mut rx) = channel::channel();
        mailbox.schedule(Instant::now() + FAR, "timed");
        let wakes = Arc::new(CountWakes::default());
        let waker = Waker::from(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);
        // With a message waiting there is nothing to sleep for, so
        // nothing to tell the reactor.
        tx.send(6u8).expect("receiver alive");
        assert!(matches!(
            pin!(mailbox.next(&mut rx)).poll(&mut cx),
            Poll::Ready(Some(Next::Message(6)))
        ));
        assert_eq!(exec.stats().peak_timers, 0);
        {
            let mut next = pin!(mailbox.next(&mut rx));
            assert!(next.as_mut().poll(&mut cx).is_pending());
            assert_eq!(exec.stats().peak_timers, 1);
            assert_eq!(wakes.0.load(Ordering::SeqCst), 0);
            tx.send(7u8).expect("receiver alive");
            assert_eq!(
                wakes.0.load(Ordering::SeqCst),
                1,
                "the send wakes the driver"
            );
            assert!(matches!(
                next.as_mut().poll(&mut cx),
                Poll::Ready(Some(Next::Message(7)))
            ));
        }
        assert!(!mailbox.is_empty(), "the timed event is still owed");
        exec.shutdown();
    }

    #[test]
    fn an_earlier_deadline_is_not_held_behind_the_registered_one() {
        let exec = Executor::new(1);
        let mut mailbox = TimedMailbox::new(exec.handle());
        let (_tx, mut rx) = channel::channel::<()>();
        let mut cx = Context::from_waker(Waker::noop());
        mailbox.schedule(Instant::now() + FAR, "far");
        assert!(pin!(mailbox.next(&mut rx)).poll(&mut cx).is_pending());
        assert_eq!(exec.stats().peak_timers, 1);
        // Polled again with nothing new, the mailbox registers nothing.
        assert!(pin!(mailbox.next(&mut rx)).poll(&mut cx).is_pending());
        assert_eq!(exec.stats().peak_timers, 1);

        mailbox.schedule(Instant::now() + Duration::from_millis(20), "near");
        assert_eq!(due(exec.block_on(mailbox.next(&mut rx))), "near");
        // The near registration replaced the far one (cancelled, and
        // deleted lazily), and "far" is registered again once it is the
        // earliest.
        assert!(pin!(mailbox.next(&mut rx)).poll(&mut cx).is_pending());
        assert!(exec.stats().peak_timers <= 2);
        exec.shutdown();
    }

    #[test]
    fn an_empty_heap_registers_nothing_with_the_reactor() {
        let exec = Executor::new(1);
        let mut mailbox = TimedMailbox::<()>::new(exec.handle());
        let (tx, mut rx) = channel::channel();
        let mut cx = Context::from_waker(Waker::noop());
        assert!(pin!(mailbox.next(&mut rx)).poll(&mut cx).is_pending());
        tx.send(1u8).expect("receiver alive");
        assert!(matches!(
            pin!(mailbox.next(&mut rx)).poll(&mut cx),
            Poll::Ready(Some(Next::Message(1)))
        ));
        drop(tx);
        assert!(matches!(
            pin!(mailbox.next(&mut rx)).poll(&mut cx),
            Poll::Ready(None)
        ));
        assert_eq!(exec.stats().peak_timers, 0);
        exec.shutdown();
    }

    #[test]
    fn a_dead_executor_delivers_early_instead_of_hanging() {
        let exec = Executor::new(1);
        let mut mailbox = TimedMailbox::new(exec.handle());
        let (_tx, mut rx) = channel::channel::<()>();
        exec.shutdown();
        mailbox.schedule(Instant::now() + FAR, "far");
        let mut cx = Context::from_waker(Waker::noop());
        assert!(matches!(
            pin!(mailbox.next(&mut rx)).poll(&mut cx),
            Poll::Ready(Some(Next::Due("far")))
        ));
    }
}
