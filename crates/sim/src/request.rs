//! Per-request runtime records.

use faas_trace::{FunctionId, TimeDelta, TimePoint};

use crate::ids::{ContainerId, RequestId};
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
#[derive(Debug)]
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
    /// The container the request runs on; meaningful while `class` is
    /// `Some` — a worker crash finds the executions it kills by it.
    pub container: ContainerId,
    /// Index of the request's record in the report; meaningful while
    /// `class` is `Some`.
    pub record: usize,
}

impl RequestState {
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
    fn info_copies_identity() {
        let r = RequestState {
            func: FunctionId(3),
            arrival: TimePoint::from_millis(1),
            exec: TimeDelta::ZERO,
            measured: true,
            class: None,
            finished: false,
            started: TimePoint::ZERO,
            container: ContainerId(0),
            record: 0,
        };
        let info = r.info(RequestId(7));
        assert_eq!(info.id, RequestId(7));
        assert_eq!(info.func, FunctionId(3));
    }
}
