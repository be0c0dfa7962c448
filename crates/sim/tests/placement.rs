//! Placement-strategy behaviour across whole runs.

use faas_obs::ObsEvent;
use faas_sim::{
    baseline_lru_stack, run, run_traced, FaultPlan, Placement, ScanMode, SimConfig, WorkerId,
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
    log.events()
        .iter()
        .filter_map(|e| match *e {
            ObsEvent::ProvisionBegin { worker, .. } => Some(worker),
            _ => None,
        })
        .collect()
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
    cl.occupy_thread(id, TimePoint::ZERO); // pin it so it is not evictable
    let b = cl.pick_worker(800).expect("fits");
    assert_eq!(a, WorkerId(0));
    assert_eq!(b, WorkerId(2));
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
    cl.occupy_thread(on0, TimePoint::ZERO);
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
