//! Placement-strategy behaviour across whole runs.

use faas_obs::{ObsEvent, TraceLog};
use faas_sim::{
    baseline_lru_stack, run, run_traced, FaultPlan, Placement, PolicyCtx, Prewarm, ScanMode,
    SimConfig, WorkerId,
};
use faas_trace::{gen, FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};

/// Four concurrent one-off functions on four workers.
fn four_functions() -> Trace {
    let profiles: Vec<FunctionProfile> = (0..4)
        .map(|i| {
            FunctionProfile::new(
                FunctionId(i),
                format!("f{i}"),
                300,
                TimeDelta::from_millis(50),
            )
        })
        .collect();
    let invs = (0..4)
        .map(|i| Invocation {
            func: FunctionId(i),
            arrival: TimePoint::from_millis(i as u64 * 10),
            exec: TimeDelta::from_secs(5),
        })
        .collect();
    Trace::new(profiles, invs).expect("valid")
}

/// The worker of every provision in `log`, in provisioning order.
fn provision_workers(log: &TraceLog) -> Vec<u16> {
    log.events()
        .iter()
        .filter_map(|e| match *e {
            ObsEvent::ProvisionBegin { worker, .. } => Some(worker),
            _ => None,
        })
        .collect()
}

/// The worker of every container `four_functions` provisions under
/// `placement` on three 2 000 MB workers, in provisioning order. The
/// run evicts nothing, so all of them are resident at once.
fn four_function_workers(placement: Placement) -> Vec<u16> {
    let config = SimConfig::default()
        .workers_mb(vec![2_000, 2_000, 2_000])
        .placement(placement);
    let (report, log) = run_traced(&four_functions(), &config, baseline_lru_stack());
    assert_eq!(report.requests.len(), 4);
    assert_eq!(report.containers_evicted, 0);
    provision_workers(&log)
}

#[test]
fn first_fit_packs_one_worker() {
    // All four 300 MB containers fit on worker 0 (1200 <= 2000).
    assert_eq!(four_function_workers(Placement::FirstFit), vec![0; 4]);
}

#[test]
fn round_robin_rotates_workers() {
    // Probe the cluster state directly: four placements over three
    // workers must wrap around.
    let profiles = vec![FunctionProfile::new(
        FunctionId(0),
        "f",
        100,
        TimeDelta::from_millis(10),
    )];
    let mut cl = faas_sim::ClusterState::with_placement(
        &[1_000, 1_000, 1_000],
        profiles,
        1,
        Placement::RoundRobin,
    );
    let picks: Vec<WorkerId> = (0..4)
        .map(|_| {
            let w = cl.pick_worker(100).expect("fits");
            let id = cl.begin_provision(FunctionId(0), w, TimePoint::ZERO, false);
            cl.finish_provision(id, TimePoint::ZERO);
            w
        })
        .collect();
    assert_eq!(
        picks,
        vec![WorkerId(0), WorkerId(1), WorkerId(2), WorkerId(0)]
    );
}

#[test]
fn round_robin_skips_full_workers() {
    let profiles = vec![FunctionProfile::new(
        FunctionId(0),
        "f",
        800,
        TimeDelta::from_millis(10),
    )];
    let mut cl = faas_sim::ClusterState::with_placement(
        &[1_000, 500, 1_000],
        profiles,
        1,
        Placement::RoundRobin,
    );
    // Worker 1 (500 MB) can never host an 800 MB container.
    let a = cl.pick_worker(800).expect("fits");
    let id = cl.begin_provision(FunctionId(0), a, TimePoint::ZERO, false);
    cl.finish_provision(id, TimePoint::ZERO);
    cl.occupy_thread(id, TimePoint::ZERO, TimePoint::ZERO); // pin it so it is not evictable
    let b = cl.pick_worker(800).expect("fits");
    assert_eq!(a, WorkerId(0));
    assert_eq!(b, WorkerId(2));
}

/// A deferred provision retried when a container idles lands on the
/// worker the RoundRobin cursor names: one `pick_worker` call per
/// placement, so the retry does not move the cursor past it first.
#[test]
fn round_robin_places_a_deferred_provision_at_the_cursor() {
    let profile = |id: u32, mem_mb: u32| {
        FunctionProfile::new(
            FunctionId(id),
            format!("f{id}"),
            mem_mb,
            TimeDelta::from_millis(100),
        )
    };
    // Three busy fillers, one per worker; then a 900 MB provision only
    // worker 0 can ever host, and a 500 MB one behind it.
    let profiles = vec![
        profile(0, 800),
        profile(1, 550),
        profile(2, 550),
        profile(3, 900),
        profile(4, 500),
    ];
    let inv = |func: u32, ms: u64, exec_s: u64| Invocation {
        func: FunctionId(func),
        arrival: TimePoint::from_millis(ms),
        exec: TimeDelta::from_secs(exec_s),
    };
    let invs = vec![
        inv(0, 0, 9),
        inv(1, 1, 3),
        inv(2, 2, 6),
        inv(3, 3, 1),
        inv(4, 4, 1),
    ];
    let trace = Trace::new(profiles, invs).expect("valid");
    let config = SimConfig::default()
        .workers_mb(vec![1_000, 800, 800])
        .placement(Placement::RoundRobin);
    let (report, log) = run_traced(&trace, &config, baseline_lru_stack());
    assert_eq!(report.requests.len(), 5);
    let deferred = log
        .events()
        .iter()
        .filter(|e| matches!(e, ObsEvent::Defer { .. }))
        .count();
    assert_eq!(deferred, 2, "both late provisions wait for memory");
    // The fillers take workers 0, 1, 2 and the cursor wraps to 0. At
    // 3.1 s worker 1's filler idles (800 MB, the 900 MB head still does
    // not fit), at 6.1 s worker 2's, at 9.1 s worker 0's: the head goes
    // to worker 0, and the cursor names worker 1, where the 500 MB
    // provision fits as well as on worker 2.
    assert_eq!(provision_workers(&log), vec![0, 1, 2, 0, 1]);
}

/// Asks for one container of function 0 on each of its first `left`
/// ticks.
#[derive(Debug)]
struct PrewarmTicks {
    left: u32,
}

impl Prewarm for PrewarmTicks {
    fn name(&self) -> &str {
        "prewarm-ticks"
    }
    fn on_tick(&mut self, _ctx: &PolicyCtx<'_>) -> Vec<FunctionId> {
        if self.left == 0 {
            return vec![];
        }
        self.left -= 1;
        vec![FunctionId(0)]
    }
}

/// Successive prewarms under RoundRobin land on consecutive workers:
/// a prewarm that fits is placed by the one `pick_worker` call.
#[test]
fn round_robin_prewarms_land_on_consecutive_workers() {
    let profiles = vec![FunctionProfile::new(
        FunctionId(0),
        "f",
        100,
        TimeDelta::from_millis(10),
    )];
    let invs = vec![Invocation {
        func: FunctionId(0),
        arrival: TimePoint::from_secs(10),
        exec: TimeDelta::from_millis(50),
    }];
    let trace = Trace::new(profiles, invs).expect("valid");
    let config = SimConfig::default()
        .workers_mb(vec![1_000, 1_000, 1_000])
        .placement(Placement::RoundRobin)
        .tick(TimeDelta::from_secs(1));
    let stack = baseline_lru_stack().with_prewarm(Box::new(PrewarmTicks { left: 4 }));
    let (report, log) = run_traced(&trace, &config, stack);
    assert_eq!(report.requests.len(), 1);
    assert_eq!(provision_workers(&log), vec![0, 1, 2, 0]);
}

#[test]
fn all_strategies_complete_generated_workloads() {
    let trace = gen::fc(17).functions(12).minutes(1).build();
    for placement in [
        Placement::MaxFree,
        Placement::RoundRobin,
        Placement::FirstFit,
    ] {
        let config = SimConfig::with_cache_gb(8).placement(placement);
        let report = run(&trace, &config, baseline_lru_stack());
        assert_eq!(
            report.requests.len(),
            trace.len(),
            "{placement:?} dropped requests"
        );
        // No worker overcommits: debug builds assert that after every
        // step (`Orchestrator::check_invariants`).
    }
}

#[test]
fn max_free_balances_better_than_first_fit() {
    // MaxFree spreads the four containers, FirstFit stacks them: the
    // busiest worker hosts 2 against 4.
    let busiest = |placement: Placement| {
        let workers = four_function_workers(placement);
        (0..3)
            .map(|w| workers.iter().filter(|&&x| x == w).count())
            .max()
    };
    assert_eq!(busiest(Placement::MaxFree), Some(2));
    assert_eq!(busiest(Placement::FirstFit), Some(4));
}

/// `MaxFree` is one scan in both scan modes; what it must keep doing is
/// break ties. Four equal workers, one function size: "most free, lowest
/// id; dead workers never; reclaimable only when nothing has it free".
#[test]
fn max_free_tie_rules() {
    let profiles = vec![FunctionProfile::new(
        FunctionId(0),
        "f",
        300,
        TimeDelta::from_millis(10),
    )];
    let mut cl = faas_sim::ClusterState::new(&[1_000; 4], profiles, 1);
    let host = |cl: &mut faas_sim::ClusterState, w: u16| {
        let id = cl.begin_provision(FunctionId(0), WorkerId(w), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        id
    };
    // All four tie at 1000 MB free: the lowest id.
    assert_eq!(cl.pick_worker(300), Some(WorkerId(0)));
    // Worker 0 drops to 700; 1, 2 and 3 tie at 1000.
    let on0 = host(&mut cl, 0);
    assert_eq!(cl.pick_worker(300), Some(WorkerId(1)));
    // A dead worker is never picked, however much it has free.
    cl.mark_worker_down(WorkerId(1));
    assert_eq!(cl.pick_worker(300), Some(WorkerId(2)));
    // Workers 2 and 3 down to 100 free with three idle containers each
    // (1000 reclaimable); worker 0 has 700 free, 1000 reclaimable.
    for w in [2, 3] {
        for _ in 0..3 {
            host(&mut cl, w);
        }
    }
    // 300 MB fits worker 0's free memory: the pass over free memory
    // decides, and the three-way tie in reclaimable memory is not asked.
    assert_eq!(cl.pick_worker(300), Some(WorkerId(0)));
    // 800 MB fits nobody's free memory; all three alive workers can
    // reclaim 1000: the lowest id, and never the dead worker 1, whose
    // 1000 MB are free outright.
    assert_eq!(cl.pick_worker(800), Some(WorkerId(0)));
    // A busy container is not reclaimable: worker 0 falls to 700.
    cl.occupy_thread(on0, TimePoint::ZERO, TimePoint::ZERO);
    assert_eq!(cl.pick_worker(800), Some(WorkerId(2)));
    assert_eq!(cl.pick_worker(1_001), None);
}

/// The paper's largest cluster (§5.2: 37 machines) under memory
/// pressure, every function the same size so free memory ties all the
/// time, two workers crashing mid-run: the indexed engine and the
/// reference scans agree on every byte of the report.
#[test]
fn thirty_seven_workers_under_pressure_agree_across_scan_modes() {
    let base = gen::azure(23).functions(60).minutes(2).build();
    let profiles: Vec<FunctionProfile> = base
        .functions()
        .iter()
        .map(|f| FunctionProfile::new(f.id, f.name.clone(), 256, f.cold_start))
        .collect();
    let trace = Trace::new(profiles, base.invocations().to_vec()).expect("valid");
    let faults = FaultPlan::none()
        .crash_worker(TimePoint::from_secs(40), WorkerId(5))
        .crash_worker(TimePoint::from_secs(80), WorkerId(0));
    let config = SimConfig::default().uniform_workers(37, 512).faults(faults);
    let indexed = run(
        &trace,
        &config.clone().scan_mode(ScanMode::Indexed),
        baseline_lru_stack(),
    );
    let reference = run(
        &trace,
        &config.scan_mode(ScanMode::Reference),
        baseline_lru_stack(),
    );
    assert_eq!(indexed.requests.len(), trace.len());
    assert!(indexed.crash_evictions > 0, "the crashes hit nothing");
    assert!(
        indexed.containers_evicted > indexed.crash_evictions + 100,
        "no memory pressure: {} evictions",
        indexed.containers_evicted
    );
    assert_eq!(format!("{indexed:?}"), format!("{reference:?}"));
}
