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
//! Policies are chosen to cover both [`cidre::sim::PriorityDeps`]
//! classes and every keep-alive a benchmark workload runs: priorities
//! read once per function and round (IceBreaker, CodeCrunch, Offline)
//! and priorities read once per candidate (LRU, TTL, GreedyDual, LFU,
//! FaasCache, FaasCache-C, CIDRE, Flame, RainbowCake, ENSURE). Both
//! fill a per-round heap from the idle lists' snapshots; the reference
//! round and the provenance record evaluate every candidate from the
//! container table, so a policy whose declaration does not hold
//! diverges (`a_false_per_function_declaration_fails_the_oracle`).

use cidre::core::{cidre_stack, CidreConfig};
use cidre::obs::{EvictReason, ObsEvent};
use cidre::policies::{
    codecrunch_stack, ensure_stack, faascache_c_stack, faascache_stack, flame_stack,
    greedydual_stack, icebreaker_stack, lfu_stack, offline_stack, rainbowcake_stack, ttl_stack,
    IceBreakerKeepAlive,
};
use cidre::sim::{
    baseline_lru_stack, run, run_traced, AlwaysCold, ContainerInfo, KeepAlive, PolicyCtx,
    PolicyStack, PriorityDeps, ScanMode, SimConfig, SimReport,
};
use cidre::trace::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};
use faas_testkit::Checker;

#[path = "../crates/sim/tests/common/arb.rs"]
mod arb;

use arb::{arb_config, arb_trace};

type MakeStack = fn(&Trace) -> PolicyStack;

/// Every policy family, keyed by priority-dependence class. Fresh
/// stacks per run: policies carry mutable state (clocks, bases), and
/// Offline's is built from the trace it replays. Of the volatile
/// baselines, IceBreaker comes with its prewarmer, and CodeCrunch's
/// priority reads a per-function discount that its compressed images
/// switch on and off (its shorter restarts only delay `ProvisionDone`;
/// every container still copies the profile's `cold_start`).
fn stacks() -> Vec<(&'static str, MakeStack)> {
    vec![
        ("lru", |_| baseline_lru_stack()),
        ("ttl", |_| ttl_stack()),
        ("greedydual", |_| greedydual_stack()),
        ("lfu", |_| lfu_stack()),
        ("faascache", |_| faascache_stack()),
        ("faascache-c", |_| faascache_c_stack()),
        ("cidre", |_| cidre_stack(CidreConfig::default())),
        ("flame", |_| flame_stack()),
        ("icebreaker", |_| icebreaker_stack()),
        ("codecrunch", |_| codecrunch_stack()),
        ("offline", offline_stack),
        ("rainbowcake", |_| rainbowcake_stack()),
        ("ensure", |_| ensure_stack()),
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
    for (label, mk) in stacks() {
        assert_stack_agrees(label, mk, trace, config);
    }
}

/// [`assert_engines_agree`] for one stack.
fn assert_stack_agrees(label: &str, mk: MakeStack, trace: &Trace, config: &SimConfig) {
    let verbose = std::env::var("ORACLE_VERBOSE").is_ok();
    if verbose {
        eprintln!("  stack={label} engine=indexed");
    }
    let indexed = run(
        trace,
        &config.clone().scan_mode(ScanMode::Indexed),
        mk(trace),
    );
    if verbose {
        eprintln!("  stack={label} engine=reference");
    }
    let reference = run(
        trace,
        &config.clone().scan_mode(ScanMode::Reference),
        mk(trace),
    );
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
    let (t_indexed, log_indexed) = run_traced(
        trace,
        &config.clone().scan_mode(ScanMode::Indexed),
        mk(trace),
    );
    assert_eq!(
        format!("{t_indexed:?}"),
        format!("{indexed:?}"),
        "{label}: recording steered the indexed run"
    );
    if verbose {
        eprintln!("  stack={label} engine=reference traced");
    }
    let (t_reference, log_reference) = run_traced(
        trace,
        &config.clone().scan_mode(ScanMode::Reference),
        mk(trace),
    );
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

/// Random traces on random clusters, fault-free and faulted alike
/// (`arb_config`); a divergence shrinks to a minimal case.
#[test]
fn all_engines_agree_on_random_workloads() {
    Checker::new("all_engines_agree_on_random_workloads")
        .cases(64)
        .regressions_file(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/equivalence.testkit-regressions"
        ))
        .run(|g| {
            let trace = arb_trace(g);
            let config = arb_config(g);
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
/// property above covers the space.
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

/// Declares [`PriorityDeps::Function`] but reads each container's own
/// `last_used`: LRU that claims its priority is the same for every
/// container of a function.
struct LastUsedByFunction;

impl KeepAlive for LastUsedByFunction {
    fn name(&self) -> &str {
        "lru-by-function"
    }

    fn priority(&self, container: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
        container.last_used.as_micros() as f64
    }

    fn priority_deps(&self) -> PriorityDeps {
        PriorityDeps::Function
    }
}

/// The oracle checks a per-function declaration: four containers of one
/// function go idle, container 0 is reused last, and an incoming
/// container needs one of their places. The reference round evaluates
/// every candidate and evicts the least recently used, container 1; the
/// indexed round reads one priority for the function, so every candidate
/// ties and the least id, container 0, goes.
#[test]
fn a_false_per_function_declaration_fails_the_oracle() {
    const N: u64 = 4;
    let profiles = vec![
        FunctionProfile::new(FunctionId(0), "a", 100, TimeDelta::from_millis(50)),
        FunctionProfile::new(FunctionId(1), "b", 100, TimeDelta::from_millis(50)),
    ];
    let mut invocations: Vec<Invocation> = (0..N)
        .map(|i| Invocation {
            func: FunctionId(0),
            arrival: TimePoint::from_millis(i),
            exec: TimeDelta::from_millis(100),
        })
        .collect();
    for (func, at) in [(0, 1_000), (1, 5_000)] {
        invocations.push(Invocation {
            func: FunctionId(func),
            arrival: TimePoint::from_millis(at),
            exec: TimeDelta::from_millis(10),
        });
    }
    let trace = Trace::new(profiles, invocations).expect("valid");
    let config = SimConfig::default().workers_mb(vec![100 * N]);
    let lying: MakeStack = |_| PolicyStack::new(Box::new(LastUsedByFunction), Box::new(AlwaysCold));
    let victims = |scan| {
        let (_, log) = run_traced(&trace, &config.clone().scan_mode(scan), lying(&trace));
        log.events()
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Evict {
                    cid,
                    reason: EvictReason::Replace,
                    ..
                } => Some(*cid),
                _ => None,
            })
            .collect::<Vec<u64>>()
    };
    assert_eq!(victims(ScanMode::Reference), vec![1]);
    assert_eq!(victims(ScanMode::Indexed), vec![0]);
    let oracle = std::panic::catch_unwind(|| assert_stack_agrees("lying", lying, &trace, &config));
    assert!(oracle.is_err(), "the oracle passed a false declaration");
}
