//! Tight timer slack for the threads that keep the live drivers' time.
//!
//! Linux lets every timed wait of a thread end up to its *timer slack*
//! late — 50 µs by default — so that nearby wake-ups can share one
//! interrupt. A live driver waits for every deadline it keeps, and under
//! time compression that slack is simulated time: at `time_scale` 0.001,
//! 50 µs real is 50 ms simulated, half of a 100 ms cold start.
//! [`TightTimers`] sets the calling thread's slack to 1 ns while it is
//! alive. Threads spawned under it inherit the value (Linux copies it at
//! `clone`), so the host's pool threads, and the sleeps of the handlers
//! they run, are as precise.
//!
//! The slack is `/proc/<tid>/timerslack_ns`, which a thread may write for
//! itself without `CAP_SYS_NICE`; `/proc/thread-self/` has no such entry,
//! so the thread's id is read from that link. The guard is best-effort:
//! any I/O error leaves the thread as it was.

use std::fs;
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// While alive, the calling thread's timer slack is 1 ns; dropped, it is
/// what it was. Not `Send`: it restores the thread that made it.
pub(crate) struct TightTimers {
    /// The slack file and the value it held; `None` if it could not be
    /// set.
    saved: Option<(PathBuf, String)>,
    _this_thread: PhantomData<*const ()>,
}

impl TightTimers {
    pub(crate) fn on_this_thread() -> Self {
        Self::via(Path::new("/proc/thread-self"))
    }

    /// As [`TightTimers::on_this_thread`], resolving the thread through
    /// `link`.
    fn via(link: &Path) -> Self {
        let set = || -> io::Result<(PathBuf, String)> {
            let path = slack_file(link)?;
            let old = fs::read_to_string(&path)?;
            fs::write(&path, "1")?;
            Ok((path, old))
        };
        Self {
            saved: set().ok(),
            _this_thread: PhantomData,
        }
    }
}

impl Drop for TightTimers {
    fn drop(&mut self) {
        if let Some((path, old)) = &self.saved {
            let _ = fs::write(path, old.trim());
        }
    }
}

/// `/proc/<tid>/timerslack_ns` of the thread `link` (a
/// `/proc/thread-self`, pointing at `<pid>/task/<tid>`) names.
fn slack_file(link: &Path) -> io::Result<PathBuf> {
    let target = fs::read_link(link)?;
    let tid = target
        .file_name()
        .ok_or_else(|| io::Error::other("thread link names no thread"))?;
    Ok(Path::new("/proc").join(tid).join("timerslack_ns"))
}

/// The calling thread's timer slack in ns; `None` without procfs.
#[cfg(test)]
pub(crate) fn this_thread_slack() -> Option<u64> {
    let path = slack_file(Path::new("/proc/thread-self")).ok()?;
    fs::read_to_string(path).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    /// Runs `f` on a fresh thread: a guard test must not leave the test
    /// harness's thread changed if it fails half-way.
    fn on_a_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        thread::spawn(f).join().expect("test thread")
    }

    #[test]
    fn the_guard_sets_one_nanosecond_and_restores_on_drop() {
        on_a_thread(|| {
            let Some(before) = this_thread_slack() else {
                return; // no procfs
            };
            assert_ne!(before, 1, "a thread starts at the default slack");
            let guard = TightTimers::on_this_thread();
            assert_eq!(this_thread_slack(), Some(1));
            drop(guard);
            assert_eq!(this_thread_slack(), Some(before));
        });
    }

    #[test]
    fn another_threads_slack_is_untouched() {
        let (read_tx, read_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel();
        let other = thread::spawn(move || {
            read_tx.send(this_thread_slack()).expect("test thread");
            go_rx.recv().expect("test thread");
            this_thread_slack()
        });
        let before = read_rx.recv().expect("other thread");
        // The other thread reads again while this one holds the guard.
        let (under, after) = on_a_thread(move || {
            let _guard = TightTimers::on_this_thread();
            go_tx.send(()).expect("other thread");
            (this_thread_slack(), other.join().expect("other thread"))
        });
        if before.is_some() {
            assert_eq!(under, Some(1));
        }
        assert_eq!(after, before);
    }

    #[test]
    fn without_the_thread_link_the_guard_is_a_silent_no_op() {
        on_a_thread(|| {
            let before = this_thread_slack();
            let guard = TightTimers::via(Path::new("/nonexistent/thread-self"));
            assert!(guard.saved.is_none());
            assert_eq!(this_thread_slack(), before);
            drop(guard);
            assert_eq!(this_thread_slack(), before);
        });
    }
}
