//! Latency waterfall analysis: decomposes each request's end-to-end
//! latency into queue-wait / provisioning / retry-backoff / execution
//! segments, from the event stream alone.
//!
//! Attribution rules (all integer microseconds, so the decomposition
//! is exact and deterministic):
//!
//! * A request's *arrival* is `Start.at - Start.wait`; its serving
//!   start is the **last** `Start` record for its rid (earlier starts
//!   were voided by worker crashes and never finished).
//! * `exec` = `Finish.at - Start.at`.
//! * `provision` (cold starts only) = the overlap of the serving
//!   container's `[ProvisionBegin, ProvisionEnd]` span with the
//!   request's `[arrival, start]` wait window: time the request
//!   observably spent waiting on container bring-up.
//! * `retry` = the union of the function's retry-backoff windows
//!   (`[RetryScheduled.at, at + backoff]`) clipped to the wait window,
//!   minus any part already attributed to `provision`: time capacity
//!   for the function was stalled behind the fault-injection backoff.
//! * `queue` = whatever wait remains — time spent purely waiting for
//!   a warm container or scheduling, clamped at zero.
//!
//! Warm starts have zero wait, so every overhead segment is zero.

use std::collections::BTreeMap;

use faas_trace::{FunctionId, TimeDelta, TimePoint};

use crate::{ObsClass, ObsEvent};

/// One request's latency decomposition. `queue + provision + retry`
/// equals the request's queue wait; adding `exec` gives end-to-end
/// latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waterfall {
    /// Request id.
    pub rid: u64,
    /// Function of the request.
    pub func: FunctionId,
    /// How the request was served.
    pub class: ObsClass,
    /// Pure queue / scheduling wait.
    pub queue: TimeDelta,
    /// Wait attributed to container provisioning.
    pub provision: TimeDelta,
    /// Wait attributed to fault-retry backoff windows.
    pub retry: TimeDelta,
    /// Execution time.
    pub exec: TimeDelta,
}

impl Waterfall {
    /// End-to-end latency (wait + execution).
    pub fn total(&self) -> TimeDelta {
        self.queue + self.provision + self.retry + self.exec
    }

    /// The four segments in display order (ASCII charts, CSV rows).
    pub fn segments(&self) -> [TimeDelta; 4] {
        [self.queue, self.provision, self.retry, self.exec]
    }
}

/// Segment names matching [`Waterfall::segments`] order.
pub const SEGMENT_NAMES: [&str; 4] = ["queue", "provision", "retry", "exec"];

/// Overlap length of `[a1, a2)` and `[b1, b2)` in microseconds.
fn overlap(a1: u64, a2: u64, b1: u64, b2: u64) -> u64 {
    a2.min(b2).saturating_sub(a1.max(b1))
}

/// Builds per-request waterfalls from an event stream. Requests whose
/// `Start`/`Finish` pair is incomplete (crash-voided runs that never
/// restarted, or a slice of the events cut mid-run) are skipped. Output is
/// sorted by rid.
pub fn waterfalls(events: &[ObsEvent]) -> Vec<Waterfall> {
    struct Started {
        at: TimePoint,
        cid: u64,
        func: FunctionId,
        class: ObsClass,
        wait: TimeDelta,
    }
    // Last Start per rid still awaiting its Finish.
    let mut open: BTreeMap<u64, Started> = BTreeMap::new();
    // Completed (start, finish) pairs per rid.
    let mut done: BTreeMap<u64, (Started, TimePoint)> = BTreeMap::new();
    // Completed provisioning spans per container, in microseconds.
    let mut prov: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut prov_open: BTreeMap<u64, u64> = BTreeMap::new();
    // Retry-backoff windows per function, in microseconds.
    let mut retries: BTreeMap<FunctionId, Vec<(u64, u64)>> = BTreeMap::new();

    for ev in events {
        match ev {
            ObsEvent::Start {
                at,
                rid,
                cid,
                func,
                class,
                wait,
            } => {
                open.insert(
                    *rid,
                    Started {
                        at: *at,
                        cid: *cid,
                        func: *func,
                        class: *class,
                        wait: *wait,
                    },
                );
            }
            ObsEvent::Finish { at, rid, .. } => {
                if let Some(s) = open.remove(rid) {
                    done.insert(*rid, (s, *at));
                }
            }
            ObsEvent::ProvisionBegin { at, cid, .. } => {
                prov_open.insert(*cid, at.as_micros());
            }
            ObsEvent::ProvisionEnd { at, cid, ok } => {
                if let Some(begin) = prov_open.remove(cid) {
                    if *ok {
                        prov.insert(*cid, (begin, at.as_micros()));
                    }
                }
            }
            ObsEvent::RetryScheduled {
                at, func, backoff, ..
            } => {
                let from = at.as_micros();
                retries
                    .entry(*func)
                    .or_default()
                    .push((from, from + backoff.as_micros()));
            }
            _ => {}
        }
    }

    done.into_iter()
        .map(|(rid, (s, fin))| {
            let start = s.at.as_micros();
            let arrival = start - s.wait.as_micros();
            let exec = fin.saturating_since(s.at);

            // Provisioning wait: only cold starts waited on bring-up.
            let pspan = if s.class == ObsClass::Cold {
                prov.get(&s.cid).copied()
            } else {
                None
            };
            let prov_us = pspan.map_or(0, |(b, e)| overlap(b, e, arrival, start));

            // Retry wait: merged backoff windows for the function,
            // clipped to the wait window, minus the provisioning part.
            let mut windows: Vec<(u64, u64)> = retries
                .get(&s.func)
                .map(|ws| {
                    ws.iter()
                        .filter_map(|&(b, e)| {
                            let (b, e) = (b.max(arrival), e.min(start));
                            (b < e).then_some((b, e))
                        })
                        .collect()
                })
                .unwrap_or_default();
            windows.sort_unstable();
            let mut retry_us = 0u64;
            let mut cursor = arrival;
            for (b, e) in windows {
                let b = b.max(cursor);
                if b < e {
                    retry_us += e - b;
                    if let Some((pb, pe)) = pspan {
                        retry_us -= overlap(b, e, pb.max(arrival), pe.min(start));
                    }
                    cursor = e;
                }
            }

            let queue_us = s
                .wait
                .as_micros()
                .saturating_sub(prov_us)
                .saturating_sub(retry_us);
            Waterfall {
                rid,
                func: s.func,
                class: s.class,
                queue: TimeDelta::from_micros(queue_us),
                provision: TimeDelta::from_micros(prov_us),
                retry: TimeDelta::from_micros(retry_us),
                exec,
            }
        })
        .collect()
}

/// Aggregate waterfall over one start class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSummary {
    /// The start class.
    pub class: ObsClass,
    /// Requests in the class.
    pub count: u64,
    /// Summed queue wait.
    pub queue: TimeDelta,
    /// Summed provisioning wait.
    pub provision: TimeDelta,
    /// Summed retry wait.
    pub retry: TimeDelta,
    /// Summed execution time.
    pub exec: TimeDelta,
}

impl ClassSummary {
    /// Mean segments in milliseconds, [`SEGMENT_NAMES`] order; zeros
    /// when the class is empty.
    pub fn mean_ms(&self) -> [f64; 4] {
        if self.count == 0 {
            return [0.0; 4];
        }
        let n = self.count as f64;
        [
            self.queue.as_millis_f64() / n,
            self.provision.as_millis_f64() / n,
            self.retry.as_millis_f64() / n,
            self.exec.as_millis_f64() / n,
        ]
    }
}

/// Aggregates waterfalls per start class. Always returns all three
/// classes in [`ObsClass::ALL`] order (empty classes with zero counts)
/// so downstream tables have a fixed shape.
pub fn summarize_by_class(wfs: &[Waterfall]) -> [ClassSummary; 3] {
    let mut out = ObsClass::ALL.map(|class| ClassSummary {
        class,
        count: 0,
        queue: TimeDelta::ZERO,
        provision: TimeDelta::ZERO,
        retry: TimeDelta::ZERO,
        exec: TimeDelta::ZERO,
    });
    for wf in wfs {
        let slot = &mut out[wf.class as usize];
        slot.count += 1;
        slot.queue += wf.queue;
        slot.provision += wf.provision;
        slot.retry += wf.retry;
        slot.exec += wf.exec;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> TimePoint {
        TimePoint::from_millis(ms)
    }

    fn d(ms: u64) -> TimeDelta {
        TimeDelta::from_millis(ms)
    }

    #[test]
    fn cold_start_decomposes_into_all_segments() {
        // Arrival at 0; a provision fails at 10ms with 30ms backoff
        // (retry window [10,40]); the serving container provisions
        // over [40,100]; execution runs [100,150].
        let events = vec![
            ObsEvent::RetryScheduled {
                at: t(10),
                func: FunctionId(0),
                attempt: 1,
                backoff: d(30),
                speculative: false,
            },
            ObsEvent::ProvisionBegin {
                at: t(40),
                cid: 1,
                func: FunctionId(0),
                worker: 0,
                speculative: false,
                attempt: 1,
            },
            ObsEvent::ProvisionEnd {
                at: t(100),
                cid: 1,
                ok: true,
            },
            ObsEvent::Start {
                at: t(100),
                rid: 5,
                cid: 1,
                func: FunctionId(0),
                class: ObsClass::Cold,
                wait: d(100),
            },
            ObsEvent::Finish {
                at: t(150),
                rid: 5,
                cid: 1,
            },
        ];
        let wfs = waterfalls(&events);
        assert_eq!(wfs.len(), 1);
        let wf = wfs[0];
        assert_eq!(wf.rid, 5);
        assert_eq!(wf.class, ObsClass::Cold);
        assert_eq!(wf.provision, d(60));
        assert_eq!(wf.retry, d(30));
        assert_eq!(wf.queue, d(10));
        assert_eq!(wf.exec, d(50));
        assert_eq!(wf.total(), d(150));
    }

    #[test]
    fn warm_start_is_pure_exec() {
        let events = vec![
            ObsEvent::Start {
                at: t(7),
                rid: 0,
                cid: 2,
                func: FunctionId(1),
                class: ObsClass::Warm,
                wait: TimeDelta::ZERO,
            },
            ObsEvent::Finish {
                at: t(19),
                rid: 0,
                cid: 2,
            },
        ];
        let wfs = waterfalls(&events);
        assert_eq!(wfs.len(), 1);
        assert_eq!(
            wfs[0].segments(),
            [TimeDelta::ZERO, TimeDelta::ZERO, TimeDelta::ZERO, d(12)]
        );
    }

    #[test]
    fn crash_voided_start_uses_the_restart() {
        // rid 3 starts on c1, the worker crashes (no Finish), then it
        // restarts on c2 and completes: only the second run counts.
        let events = vec![
            ObsEvent::Start {
                at: t(10),
                rid: 3,
                cid: 1,
                func: FunctionId(0),
                class: ObsClass::Warm,
                wait: TimeDelta::ZERO,
            },
            ObsEvent::Start {
                at: t(50),
                rid: 3,
                cid: 2,
                func: FunctionId(0),
                class: ObsClass::DelayedWarm,
                wait: d(40),
            },
            ObsEvent::Finish {
                at: t(60),
                rid: 3,
                cid: 2,
            },
        ];
        let wfs = waterfalls(&events);
        assert_eq!(wfs.len(), 1);
        assert_eq!(wfs[0].class, ObsClass::DelayedWarm);
        assert_eq!(wfs[0].queue, d(40));
        assert_eq!(wfs[0].exec, d(10));
    }

    #[test]
    fn overlapping_retry_windows_merge() {
        // Two overlapping backoff windows [0,30] and [20,60] must
        // count 60ms once, not 90ms.
        let events = vec![
            ObsEvent::RetryScheduled {
                at: t(0),
                func: FunctionId(0),
                attempt: 1,
                backoff: d(30),
                speculative: false,
            },
            ObsEvent::RetryScheduled {
                at: t(20),
                func: FunctionId(0),
                attempt: 2,
                backoff: d(40),
                speculative: false,
            },
            ObsEvent::Start {
                at: t(100),
                rid: 0,
                cid: 1,
                func: FunctionId(0),
                class: ObsClass::DelayedWarm,
                wait: d(100),
            },
            ObsEvent::Finish {
                at: t(110),
                rid: 0,
                cid: 1,
            },
        ];
        let wfs = waterfalls(&events);
        assert_eq!(wfs[0].retry, d(60));
        assert_eq!(wfs[0].queue, d(40));
    }

    #[test]
    fn summary_has_fixed_shape() {
        let sums = summarize_by_class(&[]);
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0].class, ObsClass::Warm);
        assert_eq!(sums[2].class, ObsClass::Cold);
        assert_eq!(sums[1].count, 0);
        assert_eq!(sums[1].mean_ms(), [0.0; 4]);
    }
}
