//! Ordered fork-join parallelism over `std::thread::scope`.
//!
//! [`par_map`] runs a function over a slice on a bounded worker pool and
//! returns the results **in input order**, so a parallel sweep
//! aggregates byte-identically to its sequential counterpart — workers
//! race for *work*, never for *output slots*. With `jobs <= 1` the map
//! degenerates to a plain sequential loop, which is the reference
//! behaviour determinism tests compare against.
//!
//! A worker panic propagates to the caller with the **original**
//! payload: remaining workers stop picking up new work, the scope joins,
//! and the first captured payload is re-raised via `resume_unwind`, so
//! `#[should_panic(expected = ...)]` tests and real assertion messages
//! survive the pool boundary instead of degenerating into "a scoped
//! thread panicked".

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Shared panic state for one worker pool: a stop flag workers poll
/// between items and the first captured payload, re-raised after join.
#[derive(Default)]
struct PanicGate {
    stop: AtomicBool,
    payload: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl PanicGate {
    /// Runs `body`, capturing a panic into the gate. Returns `false` if
    /// the caller should stop draining work (this or another worker
    /// panicked).
    fn run(&self, body: impl FnOnce()) -> bool {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            if let Ok(mut slot) = self.payload.lock() {
                slot.get_or_insert(payload);
            }
            self.stop.store(true, Ordering::Release);
            return false;
        }
        !self.stop.load(Ordering::Acquire)
    }

    /// Re-raises the captured worker panic, if any.
    fn rethrow(self) {
        if let Some(payload) = self.payload.into_inner().ok().flatten() {
            resume_unwind(payload);
        }
    }
}

/// A sensible default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every element of `items` using up to `jobs` worker
/// threads and returns the results in input order. `f` receives the
/// element index, so callers can derive deterministic per-scenario
/// seeds from it. Panics in `f` propagate to the caller.
///
/// # Examples
///
/// ```
/// use faas_testkit::par_map;
/// let squares = par_map(&[1u64, 2, 3, 4], 2, |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(items: &[T], jobs: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let gate = PanicGate::default();
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let keep_going = gate.run(|| {
                    let result = f(i, &items[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                });
                if !keep_going {
                    break;
                }
            });
        }
    });
    gate.rethrow();
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_regardless_of_jobs() {
        let items: Vec<u64> = (0..257).collect();
        let seq = par_map(&items, 1, |i, &x| (i as u64, x * 3));
        for jobs in [2, 4, 16, 1000] {
            let par = par_map(&items, jobs, |i, &x| (i as u64, x * 3));
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = par_map(&[] as &[u8], 8, |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn index_matches_element() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, 7, |i, &x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn uneven_work_still_completes() {
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(&items, 4, |_, &x| {
            // Simulate skew: later items cost more.
            let mut acc = 0u64;
            for i in 0..(x * 1_000) {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    // Regression: a panicking worker used to abandon its result slot and
    // the pool died with the generic "a scoped thread panicked" /
    // "worker filled every slot" messages instead of the original
    // payload. The pool must re-raise the *first* payload verbatim.
    #[test]
    #[should_panic(expected = "item 3 exploded")]
    fn par_map_propagates_original_panic_payload() {
        let items: Vec<u64> = (0..8).collect();
        par_map(&items, 4, |i, &x| {
            if i == 3 {
                panic!("item 3 exploded");
            }
            x
        });
    }

    #[test]
    fn panic_stops_remaining_work() {
        use std::sync::atomic::AtomicUsize;
        let started = AtomicUsize::new(0);
        let items: Vec<u64> = (0..1024).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 2, |i, &x| {
                started.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    panic!("early abort");
                }
                // Give the panic time to land so the stop flag is
                // observable; without it this test would race.
                std::thread::sleep(std::time::Duration::from_millis(1));
                x
            })
        }));
        assert!(result.is_err(), "panic must propagate");
        assert!(
            started.load(Ordering::Relaxed) < items.len(),
            "workers kept draining the queue after a panic"
        );
    }
}
