//! The random input space of the simulator's property suites: traces
//! and clusters drawn from one `faas-testkit` choice stream. Included by
//! `orchestrator_drivers.rs` here and by `tests/equivalence.rs` and
//! `tests/properties.rs` at the workspace root, so a pinned case seed
//! replays the same case wherever it is drawn.

use faas_sim::{FaultPlan, SimConfig, WorkerId};
use faas_testkit::Gen;
use faas_trace::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};

/// A random trace small enough to shrink but hot enough to trigger
/// REPLACE rounds and deferrals on the tight clusters below.
pub fn arb_trace(g: &mut Gen) -> Trace {
    let fns = g.vec(1..6, |g| (g.u32(64..1024), g.u64(10..2_000)));
    let invs = g.vec(1..100, |g| {
        (g.usize(0..6), g.u64(0..60_000), g.u64(1..3_000))
    });
    let profiles: Vec<FunctionProfile> = fns
        .iter()
        .enumerate()
        .map(|(i, &(mem, cold))| {
            FunctionProfile::new(
                FunctionId(i as u32),
                format!("f{i}"),
                mem,
                TimeDelta::from_millis(cold),
            )
        })
        .collect();
    let n = profiles.len();
    let invocations = invs
        .into_iter()
        .map(|(f, at, exec)| Invocation {
            func: FunctionId((f % n) as u32),
            arrival: TimePoint::from_millis(at),
            exec: TimeDelta::from_millis(exec),
        })
        .collect();
    Trace::new(profiles, invocations).expect("constructed consistently")
}

/// A random tight cluster with multi-thread containers, more often than
/// not under a fault plan: provision failures, and likely one crash (two
/// workers minimum then, so the crash cannot strand requests).
pub fn arb_config(g: &mut Gen) -> SimConfig {
    let mut workers = g.vec(1..4, |g| g.u64(1_100..4_000));
    let threads = g.u32(1..4);
    let mut plan = FaultPlan::none();
    if g.bool(0.6) {
        plan = plan
            .seed(g.u64(0..1 << 32))
            .provision_failures(g.f64(0.0..0.4))
            .retry_backoff(TimeDelta::from_millis(20), TimeDelta::from_millis(500));
        if g.bool(0.6) {
            if workers.len() < 2 {
                workers.push(workers[0]);
            }
            let worker = g.usize(0..workers.len());
            plan = plan.crash_worker(
                TimePoint::from_millis(g.u64(0..45_000)),
                WorkerId(worker as u16),
            );
        }
    }
    SimConfig::default()
        .workers_mb(workers)
        .container_threads(threads)
        .faults(plan)
}
