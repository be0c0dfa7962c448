//! Container instances and their lifecycle state.

use std::collections::VecDeque;

use faas_trace::{FunctionId, TimeDelta, TimePoint};

use crate::ids::{ContainerId, RequestId, WorkerId};

/// Lifecycle state of a container.
///
/// Containers move `Provisioning → Warm` and are then evicted (removed)
/// when the keep-alive policy reclaims them. "Warm" covers both idle and
/// busy containers; business is tracked by the number of occupied
/// execution threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// The cold-start process (image pull, runtime init) is under way.
    Provisioning,
    /// The container is initialised and kept alive; it may be serving up
    /// to its thread capacity of requests.
    Warm,
}

/// One container instance hosted on a worker.
#[derive(Debug)]
pub struct Container {
    /// Unique id of this instance.
    pub id: ContainerId,
    /// The function this container can execute.
    pub func: FunctionId,
    /// The worker hosting it.
    pub worker: WorkerId,
    /// Memory footprint in MB, charged against the worker while alive.
    pub mem_mb: u32,
    /// The provisioning latency this container paid (its `Cost`).
    pub cold_start: TimeDelta,
    /// Lifecycle state.
    pub state: ContainerState,
    /// When provisioning started.
    pub created_at: TimePoint,
    /// When provisioning finished (valid once `Warm`).
    pub warm_at: TimePoint,
    /// Last time a request started executing here.
    pub last_used: TimePoint,
    /// When the container last became fully idle (set when provisioning
    /// finishes and whenever the occupied-thread count drops to zero);
    /// the cost ledger charges wasted-idle time from this point.
    pub idle_from: TimePoint,
    /// Number of requests this container has started executing.
    pub served: u64,
    /// Occupied execution threads.
    pub threads_in_use: u32,
    /// Thread capacity (1 in all experiments except Fig. 21).
    pub thread_capacity: u32,
    /// Whether this container was created speculatively (BSS race) and
    /// has not yet been matched to its first request; used to account
    /// wasted cold starts and CIDRE's `Ti` signal.
    pub speculative_unused: bool,
    /// Requests queued directly on this container by `EnqueueOn`
    /// scaling decisions (fixed queue-length policies, Fig. 7).
    pub local_queue: VecDeque<RequestId>,
}

impl Container {
    /// Whether at least one execution thread is free (and the container
    /// is warm), i.e. a request could start here immediately.
    pub fn has_free_thread(&self) -> bool {
        self.state == ContainerState::Warm && self.threads_in_use < self.thread_capacity
    }

    /// Whether the container is warm and entirely idle (evictable).
    pub fn is_idle(&self) -> bool {
        self.state == ContainerState::Warm && self.threads_in_use == 0
    }

    /// Whether the container is warm and fully saturated.
    pub fn is_saturated(&self) -> bool {
        self.state == ContainerState::Warm && self.threads_in_use >= self.thread_capacity
    }
}

/// Read-only snapshot of a container handed to policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerInfo {
    /// Unique id of this instance.
    pub id: ContainerId,
    /// The function this container executes.
    pub func: FunctionId,
    /// Hosting worker.
    pub worker: WorkerId,
    /// Memory footprint in MB (`Size(c)` in the paper's Eq. 1/3).
    pub mem_mb: u32,
    /// Provisioning latency (`Cost(c)`).
    pub cold_start: TimeDelta,
    /// When provisioning started.
    pub created_at: TimePoint,
    /// Last time a request started executing here.
    pub last_used: TimePoint,
    /// Requests started on this container so far.
    pub served: u64,
    /// Occupied execution threads.
    pub threads_in_use: u32,
    /// Length of the container-local request queue.
    pub local_queue_len: usize,
}

impl From<&Container> for ContainerInfo {
    fn from(c: &Container) -> Self {
        Self {
            id: c.id,
            func: c.func,
            worker: c.worker,
            mem_mb: c.mem_mb,
            cold_start: c.cold_start,
            created_at: c.created_at,
            last_used: c.last_used,
            served: c.served,
            threads_in_use: c.threads_in_use,
            local_queue_len: c.local_queue.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn container(threads: u32, in_use: u32, state: ContainerState) -> Container {
        Container {
            id: ContainerId(1),
            func: FunctionId(0),
            worker: WorkerId(0),
            mem_mb: 128,
            cold_start: TimeDelta::from_millis(100),
            state,
            created_at: TimePoint::ZERO,
            warm_at: TimePoint::ZERO,
            last_used: TimePoint::ZERO,
            idle_from: TimePoint::ZERO,
            served: 0,
            threads_in_use: in_use,
            thread_capacity: threads,
            speculative_unused: false,
            local_queue: VecDeque::new(),
        }
    }

    #[test]
    fn thread_accounting() {
        let c = container(2, 1, ContainerState::Warm);
        assert!(c.has_free_thread());
        assert!(!c.is_idle());
        assert!(!c.is_saturated());
    }

    #[test]
    fn idle_and_saturated() {
        assert!(container(1, 0, ContainerState::Warm).is_idle());
        assert!(container(1, 1, ContainerState::Warm).is_saturated());
    }

    #[test]
    fn provisioning_is_not_available() {
        let c = container(4, 0, ContainerState::Provisioning);
        assert!(!c.has_free_thread());
        assert!(!c.is_idle());
    }

    #[test]
    fn info_snapshot_copies_fields() {
        let mut c = container(1, 0, ContainerState::Warm);
        c.served = 5;
        c.local_queue.push_back(RequestId(3));
        let info = ContainerInfo::from(&c);
        assert_eq!(info.served, 5);
        assert_eq!(info.local_queue_len, 1);
        assert_eq!(info.mem_mb, 128);
    }
}
