//! An unbounded MPSC channel with a synchronous sender and an async
//! receiver — the executor-native replacement for `std::sync::mpsc` in
//! the orchestrator event loops.
//!
//! Senders never block (the queue is unbounded) and may live on any
//! thread — OS threads, blocking-pool jobs, or other tasks. The single
//! consumer awaits [`Receiver::recv`]; when every sender is gone and
//! the queue is drained, `recv` resolves `None`.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use super::lock::Lock;

struct ChanState<T> {
    queue: VecDeque<T>,
    /// The consumer's parked waker (single consumer by construction).
    waker: Option<Waker>,
    senders: usize,
    rx_alive: bool,
}

struct Shared<T> {
    state: Lock<ChanState<T>>,
}

/// Creates an unbounded channel. See the [module docs](self).
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Lock::new(ChanState {
            queue: VecDeque::new(),
            waker: None,
            senders: 1,
            rx_alive: true,
        }),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Sending half; clone freely across threads and tasks.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Enqueues `value`, waking the consumer. Returns the value back if
    /// the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), T> {
        let waker = {
            let mut st = self.shared.state.lock();
            if !st.rx_alive {
                return Err(value);
            }
            st.queue.push_back(value);
            st.waker.take()
        };
        // Wake outside the lock: the waker grabs the executor's
        // run-queue lock.
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut st = self.shared.state.lock();
            st.senders -= 1;
            if st.senders == 0 {
                // Last sender: wake the consumer so `recv` can resolve
                // `None` once the queue drains.
                st.waker.take()
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Receiving half; a single consumer awaiting [`Receiver::recv`].
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Resolves to the next value, or `None` once every sender dropped
    /// and the queue is empty.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let drained: VecDeque<T> = {
            let mut st = self.shared.state.lock();
            st.rx_alive = false;
            st.waker = None;
            std::mem::take(&mut st.queue)
        };
        // Queued values drop outside the lock (their destructors may
        // wake tasks or take other locks).
        drop(drained);
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.rx.shared.state.lock();
        if let Some(v) = st.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if st.senders == 0 {
            return Poll::Ready(None);
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}
