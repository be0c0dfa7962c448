//! Differential test oracle for the indexed hot paths.
//!
//! The simulator ships two implementations of every hot path: the
//! indexed structures (`ScanMode::Indexed`, the default) and the
//! retained naive scans (`ScanMode::Reference`, the oracle). Random
//! workloads through both must produce byte-identical reports —
//! including every field of the cost ledger (DESIGN.md §11), compared
//! individually so a charge class that diverges is named — and
//! byte-identical provenance streams; any divergence is a bug in the
//! index maintenance, and the testkit runner shrinks it to a minimal
//! sequence automatically.
//!
//! Policies are chosen to cover every [`cidre::sim::PriorityDeps`]
//! class: frozen per-container priorities (LRU, TTL, GreedyDual — the
//! cross-round lazy-deletion heap), monotone function-frequency
//! priorities (LFU, vanilla FaasCache), and volatile priorities
//! (FaasCache-C, CIDRE, Flame, IceBreaker, CodeCrunch — per-round
//! heapify from the idle lists' snapshots only).

use cidre::core::{cidre_stack, CidreConfig};
use cidre::obs::{EvictReason, ObsEvent};
use cidre::policies::{
    codecrunch_stack, faascache_stack, flame_stack, icebreaker_stack, GdsfKeepAlive,
    GreedyDualKeepAlive, IceBreakerKeepAlive, LfuKeepAlive, TtlKeepAlive,
};
use cidre::sim::{
    baseline_lru_stack, run, run_traced, AlwaysCold, FaultPlan, PolicyStack, ScanMode, SimConfig,
    SimReport, WorkerId,
};
use cidre::trace::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};
use faas_testkit::{Checker, Gen};

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(32).regressions_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/equivalence.testkit-regressions"
    ))
}

/// A random trace small enough to shrink but hot enough to trigger
/// REPLACE rounds on the tight clusters below.
fn arb_trace(g: &mut Gen) -> Trace {
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
    let invocations: Vec<Invocation> = invs
        .into_iter()
        .map(|(f, at, exec)| Invocation {
            func: FunctionId((f % n) as u32),
            arrival: TimePoint::from_millis(at),
            exec: TimeDelta::from_millis(exec),
        })
        .collect();
    Trace::new(profiles, invocations).expect("constructed consistently")
}

/// A random cluster shape tight enough that evictions are routine.
fn arb_config(g: &mut Gen) -> SimConfig {
    let workers = g.vec(1..4, |g| g.u64(1_100..4_000));
    let threads = g.u32(1..4);
    SimConfig::default()
        .workers_mb(workers)
        .container_threads(threads)
}

type MakeStack = fn() -> PolicyStack;

/// Every policy family, keyed by priority-dependence class. Fresh
/// stacks per run: policies carry mutable state (clocks, bases). Of the
/// volatile baselines, IceBreaker comes with its prewarmer and
/// CodeCrunch's priority reads the per-container `cold_start` its
/// decompressed restarts shrink; Offline is left out, because its stack
/// is built from the trace it replays and a `MakeStack` takes nothing.
fn stacks() -> Vec<(&'static str, MakeStack)> {
    vec![
        ("lru", baseline_lru_stack),
        ("ttl", || {
            PolicyStack::new(
                Box::new(TtlKeepAlive::paper_default()),
                Box::new(AlwaysCold),
            )
        }),
        ("greedydual", || {
            PolicyStack::new(Box::new(GreedyDualKeepAlive::new()), Box::new(AlwaysCold))
        }),
        ("lfu", || {
            PolicyStack::new(Box::new(LfuKeepAlive), Box::new(AlwaysCold))
        }),
        ("faascache", faascache_stack),
        ("faascache-c", || {
            PolicyStack::new(Box::new(GdsfKeepAlive::faascache_c()), Box::new(AlwaysCold))
        }),
        ("cidre", || cidre_stack(CidreConfig::default())),
        ("flame", flame_stack),
        ("icebreaker", icebreaker_stack),
        ("codecrunch", codecrunch_stack),
    ]
}

/// Field-by-field cost-ledger comparison (DESIGN.md §11). The Debug
/// equality below already covers the ledger byte-for-byte; naming the
/// diverging charge class here makes a settlement bug diagnosable from
/// the failure message alone.
fn assert_ledgers_match(label: &str, a: &SimReport, b: &SimReport) {
    let (x, y) = (&a.ledger, &b.ledger);
    assert_eq!(
        x.keep_warm_mb_us, y.keep_warm_mb_us,
        "{label}: indexed vs reference: keep_warm_mb_us"
    );
    assert_eq!(
        x.idle_mb_us, y.idle_mb_us,
        "{label}: indexed vs reference: idle_mb_us"
    );
    assert_eq!(
        x.cold_start_mb_us, y.cold_start_mb_us,
        "{label}: indexed vs reference: cold_start_mb_us"
    );
    assert_eq!(
        x.speculative_mb_us, y.speculative_mb_us,
        "{label}: indexed vs reference: speculative_mb_us"
    );
    assert_eq!(
        x.dispatches, y.dispatches,
        "{label}: indexed vs reference: dispatches"
    );
    assert_eq!(
        x.replace_rounds, y.replace_rounds,
        "{label}: indexed vs reference: replace_rounds"
    );
    assert_eq!(
        a.ledger_settled_at, b.ledger_settled_at,
        "{label}: indexed vs reference: ledger_settled_at"
    );
}

/// Runs `trace` under both scan modes, untraced and traced, demanding
/// byte-identical reports and provenance streams.
fn assert_engines_agree(trace: &Trace, config: &SimConfig) {
    let verbose = std::env::var("ORACLE_VERBOSE").is_ok();
    for (label, mk) in stacks() {
        if verbose {
            eprintln!("  stack={label} engine=indexed");
        }
        let indexed = run(trace, &config.clone().scan_mode(ScanMode::Indexed), mk());
        if verbose {
            eprintln!("  stack={label} engine=reference");
        }
        let reference = run(trace, &config.clone().scan_mode(ScanMode::Reference), mk());
        assert_ledgers_match(label, &indexed, &reference);
        assert_eq!(
            format!("{indexed:?}"),
            format!("{reference:?}"),
            "{label}: indexed and reference scans diverged"
        );
        // Traced runs: recording must not steer (the report stays
        // byte-identical to the untraced run), and the provenance event
        // stream must be byte-identical across scan modes (DESIGN.md §12).
        if verbose {
            eprintln!("  stack={label} engine=indexed traced");
        }
        let (t_indexed, log_indexed) =
            run_traced(trace, &config.clone().scan_mode(ScanMode::Indexed), mk());
        assert_eq!(
            format!("{t_indexed:?}"),
            format!("{indexed:?}"),
            "{label}: recording steered the indexed run"
        );
        if verbose {
            eprintln!("  stack={label} engine=reference traced");
        }
        let (t_reference, log_reference) =
            run_traced(trace, &config.clone().scan_mode(ScanMode::Reference), mk());
        assert_eq!(
            format!("{t_reference:?}"),
            format!("{reference:?}"),
            "{label}: recording steered the reference run"
        );
        assert_eq!(
            format!("{:?}", log_indexed.events()),
            format!("{:?}", log_reference.events()),
            "{label}: indexed and reference scans traced different provenance"
        );
    }
}

#[test]
fn all_engines_agree_on_random_workloads() {
    checker("all_engines_agree_on_random_workloads").run(|g| {
        let trace = arb_trace(g);
        let config = arb_config(g);
        assert_engines_agree(&trace, &config);
    });
}

#[test]
fn all_engines_agree_under_faults() {
    checker("all_engines_agree_under_faults").run(|g| {
        let trace = arb_trace(g);
        let mut config = arb_config(g);
        // Two workers minimum so a crash cannot strand requests.
        if config.workers_mb.len() < 2 {
            let mb = config.workers_mb[0];
            config = config.workers_mb(vec![mb, mb]);
        }
        let mut plan = FaultPlan::none()
            .seed(g.u64(0..1 << 32))
            .provision_failures(g.f64(0.0..0.4))
            .retry_backoff(TimeDelta::from_millis(20), TimeDelta::from_millis(500));
        if g.bool(0.5) {
            let worker = g.usize(0..config.workers_mb.len());
            plan = plan.crash_worker(
                TimePoint::from_millis(g.u64(0..45_000)),
                WorkerId(worker as u16),
            );
        }
        let config = config.faults(plan);
        if std::env::var("ORACLE_VERBOSE").is_ok() {
            eprintln!(
                "case: invs={} fns={} config={config:?} trace={trace:?}",
                trace.len(),
                trace.functions().len(),
            );
        }
        assert_engines_agree(&trace, &config);
    });
}

/// One pinned seed, a hot two-worker cluster, every policy stack: the
/// oracle on a generated trace rather than a drawn one. The randomized
/// properties above cover the space.
#[test]
fn oracle_smoke() {
    let trace = cidre::trace::gen::azure(42).functions(9).minutes(1).build();
    let config = SimConfig::default().workers_mb(vec![2_048, 2_048]);
    assert_engines_agree(&trace, &config);
}

/// A tiny pinned scenario that forces multi-victim REPLACE rounds: one
/// 1100 MB worker, three resident 400 MB functions, and an incoming
/// 900 MB function that needs two victims at once.
#[test]
fn multi_victim_replace_agrees() {
    let profiles = vec![
        FunctionProfile::new(FunctionId(0), "a", 400, TimeDelta::from_millis(150)),
        FunctionProfile::new(FunctionId(1), "b", 400, TimeDelta::from_millis(250)),
        FunctionProfile::new(FunctionId(2), "big", 900, TimeDelta::from_millis(500)),
    ];
    let mut invocations = Vec::new();
    for i in 0..4u64 {
        invocations.push(Invocation {
            func: FunctionId((i % 2) as u32),
            arrival: TimePoint::from_millis(i * 300),
            exec: TimeDelta::from_millis(80),
        });
    }
    invocations.push(Invocation {
        func: FunctionId(2),
        arrival: TimePoint::from_millis(5_000),
        exec: TimeDelta::from_millis(100),
    });
    let trace = Trace::new(profiles, invocations).expect("valid");
    let config = SimConfig::default().workers_mb(vec![1_100]);
    assert_engines_agree(&trace, &config);
}

/// The rule that lets a worker keep its idle containers in an unordered
/// set: a REPLACE round orders its candidates by `(priority, id)`, so
/// nothing about how the set is walked reaches the victims. Six
/// containers of one function under `IceBreakerKeepAlive` (priority is
/// a function of the function alone: bit-equal) go idle in *descending*
/// id order; an incoming container that needs three of them evicts 0, 1
/// and 2, and the provenance record lists all six ascending — in both
/// scan modes.
#[test]
fn equal_priorities_evict_in_ascending_id_order() {
    const N: u64 = 6;
    let profiles = vec![
        FunctionProfile::new(FunctionId(0), "a", 100, TimeDelta::from_millis(50)),
        FunctionProfile::new(FunctionId(1), "big", 300, TimeDelta::from_millis(50)),
    ];
    // Arrival i cold-starts container i (every earlier one is busy or
    // provisioning) and runs the shorter the later it came.
    let mut invocations: Vec<Invocation> = (0..N)
        .map(|i| Invocation {
            func: FunctionId(0),
            arrival: TimePoint::from_millis(i),
            exec: TimeDelta::from_millis(100 * (N - i)),
        })
        .collect();
    invocations.push(Invocation {
        func: FunctionId(1),
        arrival: TimePoint::from_millis(5_000),
        exec: TimeDelta::from_millis(10),
    });
    let trace = Trace::new(profiles, invocations).expect("valid");
    for scan in [ScanMode::Indexed, ScanMode::Reference] {
        let config = SimConfig::default()
            .workers_mb(vec![100 * N])
            .scan_mode(scan);
        let stack = PolicyStack::new(Box::new(IceBreakerKeepAlive), Box::new(AlwaysCold));
        let (_, log) = run_traced(&trace, &config, stack);
        let went_idle: Vec<u64> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Finish { cid, .. } if *cid < N => Some(*cid),
                _ => None,
            })
            .collect();
        assert_eq!(went_idle, (0..N).rev().collect::<Vec<_>>(), "{scan:?}");
        let rounds: Vec<&Vec<(u64, f64)>> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                ObsEvent::EvictCandidates { candidates, .. } => Some(candidates),
                _ => None,
            })
            .collect();
        assert_eq!(rounds.len(), 1, "{scan:?}: one REPLACE round");
        let ids: Vec<u64> = rounds[0].iter().map(|&(cid, _)| cid).collect();
        assert_eq!(ids, (0..N).collect::<Vec<_>>(), "{scan:?}: candidates");
        let first = rounds[0][0].1.to_bits();
        assert!(
            rounds[0].iter().all(|&(_, p)| p.to_bits() == first),
            "{scan:?}: priorities are not bit-equal: {:?}",
            rounds[0]
        );
        let victims: Vec<u64> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Evict {
                    cid,
                    reason: EvictReason::Replace,
                    ..
                } => Some(*cid),
                _ => None,
            })
            .collect();
        assert_eq!(victims, vec![0, 1, 2], "{scan:?}: victims");
    }
}
