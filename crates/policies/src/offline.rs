//! The Offline upper-bound baseline: Belady's MIN eviction plus oracle
//! scaling with future knowledge (§4, "Offline").

use std::collections::HashMap;

use faas_sim::{
    ContainerInfo, IdBuildHasher, KeepAlive, PolicyCtx, RequestInfo, ScaleDecision, Scaler,
};
use faas_trace::{FunctionId, Trace};

/// Belady's MIN keep-alive: evict the container whose function will be
/// reused the furthest in the future (never-reused functions first).
/// Requires the full trace up front.
///
/// # Examples
///
/// ```
/// use faas_policies::OfflineKeepAlive;
/// use faas_sim::KeepAlive;
/// use faas_trace::gen;
///
/// let trace = gen::azure(1).functions(3).minutes(1).build();
/// assert_eq!(OfflineKeepAlive::new(&trace).name(), "belady");
/// ```
#[derive(Debug)]
pub struct OfflineKeepAlive {
    /// Sorted arrival times (µs) per function.
    arrivals: HashMap<FunctionId, Vec<u64>, IdBuildHasher>,
}

impl OfflineKeepAlive {
    /// Builds the oracle from the trace the simulation will replay.
    pub fn new(trace: &Trace) -> Self {
        let mut arrivals: HashMap<FunctionId, Vec<u64>, IdBuildHasher> = HashMap::default();
        for inv in trace.invocations() {
            arrivals
                .entry(inv.func)
                .or_default()
                .push(inv.arrival.as_micros());
        }
        // Trace invariant: invocations are sorted by arrival, so each
        // function's list is already ascending.
        Self { arrivals }
    }

    /// The next arrival of `func` strictly after `now_us`, if any, where
    /// `stepped` of its arrivals have been stepped. Those are the first
    /// `stepped` of its list, each at or before `now_us`, so the search
    /// starts after them; arrivals at `now_us` that are not stepped yet
    /// are still searched. A count that does not fit the list, or whose
    /// last arrival lies past `now_us`, falls back to the whole list.
    fn next_use(&self, func: FunctionId, now_us: u64, stepped: u64) -> Option<u64> {
        let list = self.arrivals.get(&func)?;
        let from = usize::try_from(stepped).unwrap_or(usize::MAX);
        let from = match from.checked_sub(1).map(|last| list.get(last)) {
            Some(Some(&last)) if last <= now_us => from,
            _ => 0,
        };
        let idx = from + list[from..].partition_point(|&t| t <= now_us);
        list.get(idx).copied()
    }
}

impl KeepAlive for OfflineKeepAlive {
    fn name(&self) -> &str {
        "belady"
    }

    fn priority(&self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        let stepped = ctx.invocations(container.func);
        match self.next_use(container.func, ctx.now.as_micros(), stepped) {
            // Sooner reuse => higher priority; furthest future evicted
            // first; never reused again => minimal priority.
            Some(next) => -(next as f64),
            None => f64::MIN,
        }
    }

    fn priority_deps(&self) -> faas_sim::PriorityDeps {
        // The next use of the container's function, which moves with the
        // clock: volatile, and the same for every container of it.
        faas_sim::PriorityDeps::Function
    }
}

/// Oracle scaler: uses the simulator's exact knowledge of every busy
/// thread's completion time (the paper's Offline "exhaustively searches
/// all busy warm containers in the current and future cache state") to
/// compare the wait this request would experience in the function's
/// queue against the cold-start latency, and picks whichever is shorter.
///
/// Requests already waiting ahead in the channel are accounted for: a
/// request entering at queue position `k` is served by the `(k+1)`-th
/// busy thread to finish, so the comparison uses that completion time.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleScaler;

impl Scaler for OracleScaler {
    fn name(&self) -> &str {
        "oracle"
    }

    fn on_blocked(&mut self, req: &RequestInfo, ctx: &PolicyCtx<'_>) -> ScaleDecision {
        let cold = ctx.profile(req.func).cold_start;
        let free_times = ctx.oracle_free_times(req.func);
        let ahead = ctx.pending_len(req.func);
        match free_times.get(ahead) {
            Some(&served_at) => {
                let queue_wait = served_at.saturating_since(ctx.now);
                if queue_wait < cold {
                    ScaleDecision::WaitWarm
                } else {
                    ScaleDecision::ColdStart
                }
            }
            // Fewer busy threads than queued requests: this request
            // cannot be served by the current pool's first round; a cold
            // start bounds its wait.
            None => ScaleDecision::ColdStart,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{run, ClusterState, PolicyStack, SimConfig, StartClass, WorkerId};
    use faas_trace::{gen, FunctionProfile, Invocation, TimeDelta, TimePoint};

    fn two_fn_trace() -> Trace {
        let fs = vec![
            FunctionProfile::new(FunctionId(0), "soon", 100, TimeDelta::from_millis(100)),
            FunctionProfile::new(FunctionId(1), "late", 100, TimeDelta::from_millis(100)),
        ];
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_secs(10),
                exec: TimeDelta::from_millis(5),
            },
            Invocation {
                func: FunctionId(1),
                arrival: TimePoint::from_secs(100),
                exec: TimeDelta::from_millis(5),
            },
        ];
        Trace::new(fs, invs).expect("valid")
    }

    #[test]
    fn belady_prefers_evicting_furthest_reuse() {
        let trace = two_fn_trace();
        let oracle = OfflineKeepAlive::new(&trace);
        let profiles = trace.functions().to_vec();
        let mut cl = ClusterState::new(&[100_000], profiles, 1);
        let a = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        let b = cl.begin_provision(FunctionId(1), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(a, TimePoint::ZERO);
        cl.finish_provision(b, TimePoint::ZERO);
        let ctx = cl.policy_ctx(TimePoint::ZERO);
        let ia = ContainerInfo::from(cl.container(a).expect("live"));
        let ib = ContainerInfo::from(cl.container(b).expect("live"));
        // fn0 reused at t=10s, fn1 at t=100s: evict fn1's container first.
        assert!(oracle.priority(&ia, &ctx) > oracle.priority(&ib, &ctx));
    }

    #[test]
    fn never_reused_evicted_first() {
        let trace = two_fn_trace();
        let oracle = OfflineKeepAlive::new(&trace);
        // After t=100s, fn1 is never used again.
        assert_eq!(oracle.next_use(FunctionId(1), 200_000_000, 1), None);
        assert_eq!(oracle.next_use(FunctionId(0), 0, 0), Some(10_000_000));
        // Boundary: an arrival exactly at `now` is not a future use,
        // whether or not it has been stepped.
        assert_eq!(oracle.next_use(FunctionId(0), 10_000_000, 0), None);
        assert_eq!(oracle.next_use(FunctionId(0), 10_000_000, 1), None);
    }

    /// The search that skips the stepped arrivals finds what a search
    /// of the whole list finds, at instants that tie with arrivals and
    /// with any number of the arrivals at `now` stepped.
    #[test]
    fn next_use_from_the_stepped_count_matches_the_whole_list() {
        faas_testkit::Checker::new("offline_next_use_from_stepped").run(|g| {
            let mut times = g.vec(0..40, |g| g.u64(0..20));
            times.sort_unstable();
            let arrivals = HashMap::from_iter([(FunctionId(0), times.clone())]);
            let oracle = OfflineKeepAlive { arrivals };
            for now in 0..22 {
                let whole = times.get(times.partition_point(|&t| t <= now)).copied();
                // Every arrival before `now` is stepped; of those at
                // `now`, any prefix may be.
                let before = times.partition_point(|&t| t < now);
                let through = times.partition_point(|&t| t <= now);
                for stepped in before..=through {
                    let stepped = stepped as u64;
                    assert_eq!(oracle.next_use(FunctionId(0), now, stepped), whole);
                }
            }
            // A count past the list, or one that includes arrivals after
            // `now`, still finds the right answer.
            let after_5 = times.iter().copied().find(|&t| t > 5);
            for stepped in [u64::MAX, times.len() as u64] {
                assert_eq!(oracle.next_use(FunctionId(0), 5, stepped), after_5);
            }
        });
    }

    #[test]
    fn oracle_scaler_waits_when_queueing_beats_cold() {
        // One busy container finishing in 20ms vs 100ms cold.
        let fs = vec![FunctionProfile::new(
            FunctionId(0),
            "f",
            100,
            TimeDelta::from_millis(100),
        )];
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_millis(50),
            },
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(130),
                exec: TimeDelta::from_millis(50),
            },
        ];
        let trace = Trace::new(fs, invs).expect("valid");
        let stack = PolicyStack::new(
            Box::new(OfflineKeepAlive::new(&trace)),
            Box::new(OracleScaler),
        );
        let report = run(&trace, &SimConfig::default(), stack);
        // r0 cold (100ms), runs 100..150; r1 at 130 sees 20ms queue wait
        // < 100ms cold: delayed warm start at 150.
        assert_eq!(report.requests[1].class, StartClass::DelayedWarm);
        assert_eq!(report.requests[1].wait, TimeDelta::from_millis(20));
    }

    #[test]
    fn oracle_scaler_colds_when_cold_is_faster() {
        let fs = vec![FunctionProfile::new(
            FunctionId(0),
            "f",
            100,
            TimeDelta::from_millis(100),
        )];
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_secs(10),
            },
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(200),
                exec: TimeDelta::from_millis(10),
            },
        ];
        let trace = Trace::new(fs, invs).expect("valid");
        let stack = PolicyStack::new(
            Box::new(OfflineKeepAlive::new(&trace)),
            Box::new(OracleScaler),
        );
        let report = run(&trace, &SimConfig::default(), stack);
        assert_eq!(report.requests[1].class, StartClass::Cold);
        assert_eq!(report.requests[1].wait, TimeDelta::from_millis(100));
    }

    #[test]
    fn offline_completes_generated_workloads() {
        let trace = gen::fc(13).functions(10).minutes(1).build();
        let stack = PolicyStack::new(
            Box::new(OfflineKeepAlive::new(&trace)),
            Box::new(OracleScaler),
        );
        let report = run(&trace, &SimConfig::default(), stack);
        assert_eq!(report.requests.len(), trace.len());
    }
}
