//! # faas-obs — deterministic observability for every driver
//!
//! A structured event recorder threaded through the orchestrator core
//! that all three drivers share (simulator, live replay, live host),
//! answering *why* a policy stack did what it did: every policy choice
//! point — admit/queue/cold-start/speculative-start decisions, eviction
//! victim selection with the losing candidates and their priorities,
//! retry/backoff scheduling — emits a provenance record, and the
//! request lifecycle events around them decompose end-to-end latency
//! into queue / provisioning / retry / execution segments
//! ([`waterfall`]).
//!
//! Three design rules (DESIGN.md §12):
//!
//! * **Deterministic.** Timestamps are virtual [`TimePoint`]s, never
//!   wall clocks, and events are emitted only from the core's handlers,
//!   so the stream is a pure function of the core's inputs, faults
//!   included.
//! * **Zero-cost when off.** Engines are generic over [`Recorder`];
//!   the unit [`NoopRecorder`] returns `enabled() == false` from an
//!   inlined default method, so monomorphized untraced runs compile
//!   every emission site to nothing. Anything expensive to build
//!   (candidate snapshots, provenance strings) must be gated behind
//!   `enabled()` at the call site.
//! * **Dependency-free.** Only `faas-trace` (itself std-only) for the
//!   time and function-id vocabulary; ids of other domain types cross
//!   the boundary as raw integers so `faas-obs` sits below the engines
//!   in the crate DAG.
//!
//! Exporters: [`chrome::to_chrome_json`] writes the Chrome trace-event
//! format (load in Perfetto / `chrome://tracing`; one track per worker
//! and container, one for orchestrator decisions), and
//! [`waterfall::waterfalls`] turns a log into per-request latency
//! decompositions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DESIGN.md §8, in library code outside tests: no printing (P1).
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod chrome;
pub mod waterfall;

use std::collections::VecDeque;

use faas_trace::{FunctionId, TimeDelta, TimePoint};

/// The final admission decision for an arrival that found no idle warm
/// container (warm hits start immediately and emit only
/// [`ObsEvent::Start`]; there is no policy choice to record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Provision a new container immediately.
    ColdStart,
    /// Park in the pending queue until a warm container frees up.
    WaitWarm,
    /// CSS race: queue the request *and* start a speculative container.
    Race,
    /// Enqueue on a specific busy container's local queue.
    EnqueueOn(u64),
}

/// How a request's execution started. Mirrors the simulator's
/// `StartClass` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsClass {
    /// Immediate start on an idle warm container.
    Warm,
    /// Queued, then started on a container that became free.
    DelayedWarm,
    /// Waited for a fresh container to be provisioned.
    Cold,
}

impl ObsClass {
    /// All classes, in waterfall display order.
    pub const ALL: [ObsClass; 3] = [ObsClass::Warm, ObsClass::DelayedWarm, ObsClass::Cold];

    /// Stable lowercase label (CSV columns, chart rows).
    pub fn label(self) -> &'static str {
        match self {
            ObsClass::Warm => "warm",
            ObsClass::DelayedWarm => "delayed_warm",
            ObsClass::Cold => "cold",
        }
    }
}

/// Why a container was evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// REPLACE round: evicted to make room for an incoming container.
    Replace,
    /// Keep-alive expiration (idle timeout / policy tick).
    Expire,
    /// The worker hosting it crashed.
    Crash,
}

/// One structured trace event. Instants carry their own `at`; spans
/// are reconstructed by exporters from begin/end pairs
/// ([`ObsEvent::ProvisionBegin`]/[`ObsEvent::ProvisionEnd`],
/// [`ObsEvent::Start`]/[`ObsEvent::Finish`]).
///
/// Container, request, and worker ids are raw integers (`u64`/`u16`)
/// so this crate does not depend on the simulator; the engines own the
/// newtype wrappers.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// Admission decision for a blocked arrival (decision provenance).
    /// `note` carries the scaler's [`explain`] string when available.
    ///
    /// [`explain`]: ObsEvent#provenance-notes
    Admit {
        /// Virtual time of the arrival.
        at: TimePoint,
        /// Request id.
        rid: u64,
        /// Function of the request.
        func: FunctionId,
        /// The final decision, after any escalation or validation.
        decision: AdmitDecision,
        /// Scaler-provided provenance note.
        note: Option<String>,
    },
    /// A request began executing.
    Start {
        /// Virtual start time.
        at: TimePoint,
        /// Request id.
        rid: u64,
        /// Serving container.
        cid: u64,
        /// Function of the request.
        func: FunctionId,
        /// How the start was served.
        class: ObsClass,
        /// Queue wait endured before the start (`at - arrival`).
        wait: TimeDelta,
    },
    /// A request finished executing.
    Finish {
        /// Virtual completion time.
        at: TimePoint,
        /// Request id.
        rid: u64,
        /// Serving container.
        cid: u64,
    },
    /// Container provisioning began.
    ProvisionBegin {
        /// Virtual time provisioning started.
        at: TimePoint,
        /// The new container's id.
        cid: u64,
        /// Function the container will serve.
        func: FunctionId,
        /// Worker it is placed on.
        worker: u16,
        /// True when started speculatively (CSS race).
        speculative: bool,
        /// Retry attempt number (0 = first try).
        attempt: u32,
    },
    /// Container provisioning completed (`ok`) or failed (`!ok`).
    ProvisionEnd {
        /// Virtual time provisioning ended.
        at: TimePoint,
        /// The container's id.
        cid: u64,
        /// Whether the container came up.
        ok: bool,
    },
    /// A failed provision was scheduled for retry (decision
    /// provenance: fault-model backoff).
    RetryScheduled {
        /// Virtual time of the failure.
        at: TimePoint,
        /// Function whose provision failed.
        func: FunctionId,
        /// The attempt number the retry will carry.
        attempt: u32,
        /// Backoff delay until the retry fires.
        backoff: TimeDelta,
        /// Whether the failed provision was speculative.
        speculative: bool,
    },
    /// Victim-selection provenance for a REPLACE round: every idle
    /// candidate on the chosen worker with its keep-alive priority,
    /// sorted ascending (priority, then container id) — the eviction
    /// order. The actual victims are a prefix of this list; the rest
    /// are the losing candidates.
    EvictCandidates {
        /// Virtual time of the REPLACE round.
        at: TimePoint,
        /// Worker being scavenged.
        worker: u16,
        /// Function the freed memory is for.
        incoming: FunctionId,
        /// `(container id, priority)` in eviction order.
        candidates: Vec<(u64, f64)>,
    },
    /// A container was evicted. `note` carries the keep-alive policy's
    /// `explain` string when available.
    Evict {
        /// Virtual eviction time.
        at: TimePoint,
        /// The evicted container.
        cid: u64,
        /// Function it served.
        func: FunctionId,
        /// Worker it lived on.
        worker: u16,
        /// Why it was evicted.
        reason: EvictReason,
        /// Keep-alive-provided provenance note.
        note: Option<String>,
    },
    /// A provision request could not be placed (no worker with enough
    /// reclaimable memory) and was deferred to the backlog.
    Defer {
        /// Virtual time of the deferral.
        at: TimePoint,
        /// Function whose provision was deferred.
        func: FunctionId,
        /// Whether the deferred provision is speculative.
        speculative: bool,
    },
    /// A worker crashed (fault injection); per-victim
    /// [`ObsEvent::Evict`] records with [`EvictReason::Crash`] follow.
    WorkerDown {
        /// Virtual crash time.
        at: TimePoint,
        /// The crashed worker.
        worker: u16,
    },
}

impl ObsEvent {
    /// The event's virtual timestamp.
    pub fn at(&self) -> TimePoint {
        match self {
            ObsEvent::Admit { at, .. }
            | ObsEvent::Start { at, .. }
            | ObsEvent::Finish { at, .. }
            | ObsEvent::ProvisionBegin { at, .. }
            | ObsEvent::ProvisionEnd { at, .. }
            | ObsEvent::RetryScheduled { at, .. }
            | ObsEvent::EvictCandidates { at, .. }
            | ObsEvent::Evict { at, .. }
            | ObsEvent::Defer { at, .. }
            | ObsEvent::WorkerDown { at, .. } => *at,
        }
    }
}

/// Event sink the engines are generic over. The default methods are
/// the no-op implementation: `enabled()` is a constant `false` the
/// optimizer folds, so every emission site guarded by
/// `if rec.enabled()` disappears from untraced monomorphizations.
///
/// Implementations must be cheap and infallible; recording must never
/// influence engine behavior (determinism rule: a traced run produces
/// the same report as an untraced one).
pub trait Recorder {
    /// Whether events are being kept. Gate any work needed only to
    /// *build* an event (snapshots, note strings) behind this.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Record one event. No-op by default.
    #[inline]
    fn record(&mut self, event: ObsEvent) {
        let _ = event;
    }

    /// Finish recording and take the accumulated log, leaving the
    /// recorder empty. The no-op default returns an empty log. Exists so
    /// engines that cannot return their recorder by value (e.g. an
    /// orchestrator task replying over a channel) can still surface the
    /// log through a generic `R: Recorder`.
    fn take_log(&mut self) -> TraceLog {
        TraceLog::default()
    }
}

/// The zero-cost recorder: unit struct, all defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A bounded ring-buffer recorder. When full, the oldest events are
/// dropped (and counted) so long traced runs keep the most recent
/// window; [`RingRecorder::unbounded`] keeps everything.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: VecDeque<ObsEvent>,
    cap: usize,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder that keeps at most `cap` events (the newest win).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        RingRecorder {
            buf: VecDeque::new(),
            cap,
            dropped: 0,
        }
    }

    /// A recorder that keeps every event.
    pub fn unbounded() -> Self {
        RingRecorder {
            buf: VecDeque::new(),
            cap: usize::MAX,
            dropped: 0,
        }
    }

    /// Finish recording and take the accumulated log.
    pub fn into_log(self) -> TraceLog {
        TraceLog {
            events: self.buf.into(),
            dropped: self.dropped,
        }
    }
}

impl Recorder for RingRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: ObsEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    fn take_log(&mut self) -> TraceLog {
        TraceLog {
            events: std::mem::take(&mut self.buf).into(),
            dropped: std::mem::take(&mut self.dropped),
        }
    }
}

/// A finished recording: the retained events in emission order (which
/// for the simulator is virtual-time order), plus how many older events
/// the ring dropped.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceLog {
    events: Vec<ObsEvent>,
    dropped: u64,
}

impl TraceLog {
    /// The retained events, oldest first.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events the bounded ring discarded to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Export as Chrome trace-event JSON (see [`chrome`]).
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self.events())
    }

    /// Per-request latency waterfalls (see [`waterfall`]).
    pub fn waterfalls(&self) -> Vec<waterfall::Waterfall> {
        waterfall::waterfalls(self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(us: u64) -> ObsEvent {
        ObsEvent::Defer {
            at: TimePoint::from_micros(us),
            func: FunctionId(0),
            speculative: false,
        }
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let mut rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.record(ev(1)); // must be a no-op, not a panic
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut rec = RingRecorder::with_capacity(2);
        assert!(rec.enabled());
        for us in 0..5 {
            rec.record(ev(us));
        }
        let log = rec.into_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let ats: Vec<u64> = log.events().iter().map(|e| e.at().as_micros()).collect();
        assert_eq!(ats, vec![3, 4]);
    }

    #[test]
    fn take_log_drains_the_ring() {
        let mut rec = RingRecorder::unbounded();
        rec.record(ev(7));
        let log = rec.take_log();
        assert_eq!(log.len(), 1);
        assert!(rec.take_log().is_empty(), "take_log leaves the ring empty");
        let mut noop = NoopRecorder;
        assert!(noop.take_log().is_empty());
    }

    #[test]
    fn unbounded_keeps_everything() {
        let mut rec = RingRecorder::unbounded();
        for us in 0..100 {
            rec.record(ev(us));
        }
        let log = rec.into_log();
        assert_eq!(log.len(), 100);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = RingRecorder::with_capacity(0);
    }
}
