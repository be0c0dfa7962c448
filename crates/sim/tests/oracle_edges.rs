//! Edge cases of the policy-facing cluster queries that the indexed
//! refactor must not disturb: the earliest of `oracle_free_times` and the
//! saturated-container views, across dead workers, provisioning-only
//! functions, and the exact saturation boundary — and the two views
//! of the hashed container table whose order is observable, with the
//! per-function pool and counts that have no set beside them any more,
//! and the per-worker idle lists of snapshots.

use std::collections::{BTreeMap, HashMap};

use faas_sim::{
    ClusterState, Container, ContainerId, ContainerInfo, ContainerState, PolicyCtx, ScanMode,
    WorkerId,
};
use faas_testkit::{Checker, Gen};
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

fn profiles(n: u32) -> Vec<FunctionProfile> {
    (0..n)
        .map(|i| {
            FunctionProfile::new(
                FunctionId(i),
                format!("f{i}"),
                100,
                TimeDelta::from_millis(50),
            )
        })
        .collect()
}

fn warm(cl: &mut ClusterState, func: u32, worker: u16) -> ContainerId {
    let id = cl.begin_provision(FunctionId(func), WorkerId(worker), TimePoint::ZERO, false);
    cl.finish_provision(id, TimePoint::ZERO);
    id
}

#[test]
fn oracle_earliest_free_is_none_for_provisioning_only_function() {
    let mut cl = ClusterState::new(&[1_000], profiles(1), 1);
    // Provisioning has begun but no container is warm yet.
    let _pending = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
    let busy = HashMap::new();
    let ctx = PolicyCtx::new(TimePoint::from_secs(1), &cl, &busy);
    assert_eq!(ctx.oracle_free_times(FunctionId(0)).first(), None);
    assert_eq!(ctx.saturated_count(FunctionId(0)), 0);
}

#[test]
fn oracle_earliest_free_picks_global_minimum_across_containers() {
    let mut cl = ClusterState::new(&[1_000], profiles(1), 2);
    let a = warm(&mut cl, 0, 0);
    let b = warm(&mut cl, 0, 0);
    cl.occupy_thread(a, TimePoint::ZERO);
    cl.occupy_thread(b, TimePoint::ZERO);
    let mut busy = HashMap::new();
    busy.insert(
        a,
        vec![TimePoint::from_millis(900), TimePoint::from_millis(400)],
    );
    busy.insert(b, vec![TimePoint::from_millis(700)]);
    let ctx = PolicyCtx::new(TimePoint::from_millis(100), &cl, &busy);
    assert_eq!(
        ctx.oracle_free_times(FunctionId(0)).first().copied(),
        Some(TimePoint::from_millis(400))
    );
}

#[test]
fn dead_workers_drop_out_of_oracle_and_saturation_views() {
    let mut cl = ClusterState::new(&[1_000, 1_000], profiles(1), 1);
    let doomed = warm(&mut cl, 0, 0);
    let survivor = warm(&mut cl, 0, 1);
    cl.occupy_thread(doomed, TimePoint::ZERO);
    cl.occupy_thread(survivor, TimePoint::ZERO);
    let mut busy = HashMap::new();
    busy.insert(doomed, vec![TimePoint::from_millis(200)]);
    busy.insert(survivor, vec![TimePoint::from_millis(800)]);

    cl.mark_worker_down(WorkerId(0));
    for cid in cl.containers_on(WorkerId(0)) {
        let _ = cl.crash_evict(cid, TimePoint::from_millis(100));
        busy.remove(&cid);
    }

    let ctx = PolicyCtx::new(TimePoint::from_millis(100), &cl, &busy);
    // The dead worker's container (and its earlier free time) is gone.
    assert_eq!(
        ctx.oracle_free_times(FunctionId(0)).first().copied(),
        Some(TimePoint::from_millis(800))
    );
    let saturated: Vec<ContainerId> = ctx.saturated_iter(FunctionId(0)).map(|c| c.id).collect();
    assert_eq!(saturated, vec![survivor]);
    // And the crashed worker can no longer host provisions.
    assert!(!cl.worker_is_alive(WorkerId(0)));
    assert_eq!(cl.pick_worker(100), Some(WorkerId(1)));
}

#[test]
fn saturation_flips_exactly_at_thread_capacity() {
    let mut cl = ClusterState::new(&[1_000], profiles(1), 2);
    let id = warm(&mut cl, 0, 0);
    let busy = HashMap::new();

    // 1 of 2 threads: not saturated, still schedulable.
    cl.occupy_thread(id, TimePoint::ZERO);
    {
        let ctx = PolicyCtx::new(TimePoint::ZERO, &cl, &busy);
        assert_eq!(ctx.saturated_count(FunctionId(0)), 0);
    }
    assert_eq!(cl.pick_available(FunctionId(0)), Some(id));

    // 2 of 2 threads: saturated, invisible to the free-thread pool.
    cl.occupy_thread(id, TimePoint::ZERO);
    {
        let ctx = PolicyCtx::new(TimePoint::ZERO, &cl, &busy);
        assert_eq!(ctx.saturated_count(FunctionId(0)), 1);
        let ids: Vec<ContainerId> = ctx.saturated_iter(FunctionId(0)).map(|c| c.id).collect();
        assert_eq!(ids, vec![id]);
    }
    assert_eq!(cl.pick_available(FunctionId(0)), None);

    // Releasing one thread crosses back below the boundary.
    cl.release_thread(id, TimePoint::ZERO);
    {
        let ctx = PolicyCtx::new(TimePoint::ZERO, &cl, &busy);
        assert_eq!(ctx.saturated_count(FunctionId(0)), 0);
    }
    assert_eq!(cl.pick_available(FunctionId(0)), Some(id));
}

#[test]
fn saturated_view_skips_idle_containers_and_absent_functions() {
    let mut cl = ClusterState::new(&[2_000], profiles(2), 1);
    let a = warm(&mut cl, 0, 0);
    let _idle = warm(&mut cl, 0, 0);
    let b = warm(&mut cl, 0, 0);
    cl.occupy_thread(a, TimePoint::ZERO);
    cl.occupy_thread(b, TimePoint::ZERO);
    let busy = HashMap::new();
    let ctx = PolicyCtx::new(TimePoint::ZERO, &cl, &busy);
    let saturated: Vec<ContainerId> = ctx.saturated_iter(FunctionId(0)).map(|c| c.id).collect();
    assert_eq!(saturated, vec![a, b]);
    // A function with no containers at all yields an empty view.
    assert_eq!(ctx.saturated_iter(FunctionId(1)).count(), 0);
}

/// What the model knows of a live container.
#[derive(Clone, Copy)]
struct Tracked {
    worker: WorkerId,
    func: FunctionId,
    warm: bool,
    /// Threads occupied: a warm container with none is idle.
    busy: u32,
}

/// One of the model's containers for which `wanted` holds, if any.
fn pick(
    g: &mut Gen,
    cl: &ClusterState,
    model: &BTreeMap<ContainerId, Tracked>,
    wanted: impl Fn(&Container) -> bool,
) -> Option<ContainerId> {
    let fitting: Vec<ContainerId> = model
        .keys()
        .copied()
        .filter(|&id| wanted(cl.container(id).expect("the model tracks live containers")))
        .collect();
    (!fitting.is_empty()).then(|| *g.choose(&fitting))
}

/// The container table is found by hash, so nothing about its layout
/// orders `all_iter` or `containers_on`: each sorts.
/// Random lifecycles over 1–5 workers, a `BTreeMap` model beside the
/// cluster; after every step the views equal the model's ascending ids,
/// each worker's idle list holds fresh snapshots of exactly the model's
/// idle containers there, the per-function counts equal the model's, the pool's pick equals
/// the reference scan's for every function, and every bookkeeping
/// invariant holds.
#[test]
fn ordered_views_match_a_btreemap_model_through_random_lifecycles() {
    const FUNCTIONS: u32 = 4;
    Checker::new("ordered_views_match_a_btreemap_model").run(|g| {
        let workers = g.usize(1..6);
        let mut cl = ClusterState::new(&vec![1_500; workers], profiles(FUNCTIONS), 2);
        let mut model: BTreeMap<ContainerId, Tracked> = BTreeMap::new();
        for step in 0..g.u64(1..160) {
            let now = TimePoint::from_millis(step);
            let provisioning = |c: &Container| c.state == ContainerState::Provisioning;
            match g.u32(0..42) {
                0..=13 => {
                    let worker = WorkerId(g.usize(0..workers) as u16);
                    let host = &cl.workers()[usize::from(worker.0)];
                    if host.alive && host.free_mb() >= 100 {
                        let func = FunctionId(g.u32(0..FUNCTIONS));
                        let id = cl.begin_provision(func, worker, now, g.bool(0.3));
                        model.insert(
                            id,
                            Tracked {
                                worker,
                                func,
                                warm: false,
                                busy: 0,
                            },
                        );
                    }
                }
                14..=20 => {
                    if let Some(id) = pick(g, &cl, &model, provisioning) {
                        cl.finish_provision(id, now);
                        model.get_mut(&id).expect("tracked").warm = true;
                    }
                }
                21..=27 => {
                    if let Some(id) = pick(g, &cl, &model, Container::has_free_thread) {
                        cl.occupy_thread(id, now);
                        model.get_mut(&id).expect("tracked").busy += 1;
                    }
                }
                28..=31 => {
                    if let Some(id) = pick(g, &cl, &model, |c| c.threads_in_use > 0) {
                        cl.release_thread(id, now);
                        model.get_mut(&id).expect("tracked").busy -= 1;
                    }
                }
                32..=38 => {
                    if let Some(id) = pick(g, &cl, &model, Container::is_idle) {
                        cl.evict(id, now);
                        model.remove(&id);
                    }
                }
                39..=40 => {
                    if let Some(id) = pick(g, &cl, &model, provisioning) {
                        cl.fail_provision(id, now);
                        model.remove(&id);
                    }
                }
                _ => {
                    // A worker dies with whatever it hosts, in any state.
                    let w = WorkerId(g.usize(0..workers) as u16);
                    cl.mark_worker_down(w);
                    for id in cl.containers_on(w) {
                        cl.crash_evict(id, now);
                        model.remove(&id);
                    }
                }
            }
            let ids: Vec<ContainerId> = model.keys().copied().collect();
            assert_eq!(cl.all_iter().map(|c| c.id).collect::<Vec<_>>(), ids);
            for w in (0..workers).map(|w| WorkerId(w as u16)) {
                let hosted: Vec<ContainerId> = ids
                    .iter()
                    .copied()
                    .filter(|id| model[id].worker == w)
                    .collect();
                assert_eq!(cl.containers_on(w), hosted, "containers_on({w:?})");
                // The idle list, in id order, is a fresh snapshot of each
                // container the model says is idle there.
                let mut idle = cl.workers()[usize::from(w.0)].idle().to_vec();
                idle.sort_by_key(|c| c.id);
                let expected: Vec<ContainerInfo> = hosted
                    .iter()
                    .filter(|id| model[id].warm && model[id].busy == 0)
                    .map(|&id| ContainerInfo::from(cl.container(id).expect("live")))
                    .collect();
                assert_eq!(idle, expected, "idle list of {w:?}");
            }
            for func in (0..FUNCTIONS).map(FunctionId) {
                let of = |warm| {
                    let hit = |t: &&Tracked| t.func == func && t.warm == warm;
                    model.values().filter(hit).count() as u32
                };
                let busy = HashMap::new();
                let ctx = PolicyCtx::new(now, &cl, &busy);
                assert_eq!(ctx.provisioning_count(func), of(false), "{func:?}");
                assert_eq!(ctx.warm_count(func), of(true), "{func:?}");
                let indexed = cl.pick_available(func);
                cl.set_scan(ScanMode::Reference);
                let reference = cl.pick_available(func);
                cl.set_scan(ScanMode::Indexed);
                assert_eq!(indexed, reference, "pick_available({func:?})");
            }
            cl.validate();
        }
    });
}
