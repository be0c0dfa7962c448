//! Per-request runtime records.

use faas_trace::{FunctionId, TimeDelta, TimePoint};

use crate::ids::RequestId;
use crate::policy::StartClass;

/// Immutable request facts handed to policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestInfo {
    /// The request's id (trace order).
    pub id: RequestId,
    /// The invoked function.
    pub func: FunctionId,
    /// Arrival time.
    pub arrival: TimePoint,
}

/// Mutable per-request state tracked by the engine.
#[derive(Debug, Clone)]
pub struct RequestState {
    /// The invoked function.
    pub func: FunctionId,
    /// Arrival time.
    pub arrival: TimePoint,
    /// Pure execution duration: from the trace, or zero when `measured`.
    pub exec: TimeDelta,
    /// Whether the driver measures the execution time as the execution
    /// ends (a live host) instead of announcing it up front.
    pub measured: bool,
    /// How the request started, once dispatched (`None` again while a
    /// crash has it re-queued).
    pub class: Option<StartClass>,
    /// Whether the request's execution has finished.
    pub finished: bool,
    /// When the request started executing; meaningful while `class` is
    /// `Some`.
    pub started: TimePoint,
    /// Index of the request's record in the report; meaningful while
    /// `class` is `Some`.
    pub record: usize,
}

impl RequestState {
    /// The invocation overhead (wait before execution), if started.
    pub fn wait(&self) -> Option<TimeDelta> {
        self.class
            .map(|_| self.started.saturating_since(self.arrival))
    }

    /// Request facts for policy callbacks.
    pub fn info(&self, id: RequestId) -> RequestInfo {
        RequestInfo {
            id,
            func: self.func,
            arrival: self.arrival,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_is_start_minus_arrival() {
        let mut r = RequestState {
            func: FunctionId(0),
            arrival: TimePoint::from_millis(10),
            exec: TimeDelta::from_millis(5),
            measured: false,
            class: None,
            finished: false,
            started: TimePoint::ZERO,
            record: 0,
        };
        assert_eq!(r.wait(), None);
        r.class = Some(StartClass::Cold);
        r.started = TimePoint::from_millis(25);
        assert_eq!(r.wait(), Some(TimeDelta::from_millis(15)));
    }

    #[test]
    fn info_copies_identity() {
        let r = RequestState {
            func: FunctionId(3),
            arrival: TimePoint::from_millis(1),
            exec: TimeDelta::ZERO,
            measured: true,
            class: None,
            finished: false,
            started: TimePoint::ZERO,
            record: 0,
        };
        let info = r.info(RequestId(7));
        assert_eq!(info.id, RequestId(7));
        assert_eq!(info.func, FunctionId(3));
    }
}
